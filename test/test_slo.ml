(* Streaming SLO gauges: a conformant run burns under 1.0 end-to-end
   (store -> query -> Slo), artificial violations are counted per sample,
   fold spans feed their (source, class) series, and a stored simulator
   trace replays clean through the oracle's store entry point. *)

module Config = Rthv_core.Config
module Irq_fold = Rthv_core.Irq_fold
module Irq_record = Rthv_core.Irq_record
module Hyp_sim = Rthv_core.Hyp_sim
module Hyp_trace = Rthv_core.Hyp_trace
module Store = Rthv_core.Trace_store
module Query = Rthv_core.Trace_query
module D = Rthv_check.Diagnostic
module Oracle = Rthv_check.Trace_oracle
module Scenarios = Rthv_check.Scenarios
module Slo = Rthv_check.Slo
module Registry = Rthv_obs.Registry
module Json = Rthv_obs.Json

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let direct = Some Irq_record.Direct

let verdict t ~source ~cls =
  List.find_opt
    (fun v -> v.Slo.sv_source = source && v.Slo.sv_class = cls)
    (Slo.verdicts t)

(* End-to-end: simulate the conformant scenario into a store, replay the
   store through the query engine's on_sample hook into the gauges.  Every
   bounded series must burn strictly under 1.0 — that is the paper's
   guarantee the scenario was built to exhibit. *)
let test_conformant_burns_under_one () =
  let config = Scenarios.conformant () in
  let trace = Hyp_trace.create ~capacity:(1 lsl 20) () in
  let sim = Hyp_sim.create ~trace config in
  Hyp_sim.run sim;
  Testutil.with_temp (fun path ->
      ignore (Store.write_entries path (Hyp_trace.to_list trace) : int);
      let slo = Slo.create config in
      let q =
        Query.run ~config ~on_sample:(Slo.span slo) ~agg:Query.Latency
          ~group_by:Query.By_class path
      in
      Alcotest.(check bool) "samples flowed" true (q.Query.q_matched > 0);
      Alcotest.(check bool) "slo ok" true (Slo.ok slo);
      let total = ref 0 in
      List.iter
        (fun v ->
          total := !total + v.Slo.sv_count;
          let cls = Irq_fold.class_name v.Slo.sv_class in
          Alcotest.(check int) ("no violations: " ^ cls) 0
            v.Slo.sv_violations;
          match v.Slo.sv_burn with
          | Some burn ->
              (* The eq.-(16) bound is tight: the conformant workload can
                 attain it with equality, which is not a violation. *)
              Alcotest.(check bool) ("burn <= 1: " ^ cls) true
                (burn <= 1.0)
          | None -> ())
        (Slo.verdicts slo);
      Alcotest.(check int) "every sample in a series" q.Query.q_matched !total)

let test_violation_counted () =
  let config = Scenarios.quickstart () in
  let slo = Slo.create config in
  (* The series (and its precomputed bound) appears on first observation. *)
  Slo.observe slo ~source:"nic" ~cls:direct ~latency_us:1.0;
  let bound =
    match verdict slo ~source:"nic" ~cls:direct with
    | Some { Slo.sv_bound_us = Some b; _ } -> b
    | _ -> Alcotest.fail "direct series has no finite bound"
  in
  Alcotest.(check bool) "clean so far" true (Slo.ok slo);
  Slo.observe slo ~source:"nic" ~cls:direct ~latency_us:(bound *. 2.);
  Slo.observe slo ~source:"nic" ~cls:direct ~latency_us:(bound *. 3.);
  Slo.observe slo ~source:"nic" ~cls:direct ~latency_us:1.0;
  Alcotest.(check bool) "violated" false (Slo.ok slo);
  match verdict slo ~source:"nic" ~cls:direct with
  | Some v ->
      Alcotest.(check int) "samples" 4 v.Slo.sv_count;
      Alcotest.(check int) "per-sample violations" 2 v.Slo.sv_violations;
      Testutil.close ~eps:1e-9 "worst" (bound *. 3.) v.Slo.sv_worst_us;
      (match v.Slo.sv_burn with
      | Some burn -> Testutil.close ~eps:1e-9 "burn = worst/bound" 3.0 burn
      | None -> Alcotest.fail "bounded series must report burn");
      (* The rthv-slo/1 document agrees with the verdict. *)
      (match Slo.to_json slo with
      | Json.Obj fields -> (
          match List.assoc_opt "ok" fields with
          | Some (Json.Bool b) -> Alcotest.(check bool) "json ok" false b
          | _ -> Alcotest.fail "rthv-slo/1 missing ok")
      | _ -> Alcotest.fail "rthv-slo/1 not an object")
  | None -> Alcotest.fail "series missing"

(* An unanticipated (source, class) pair — e.g. the query engine's
   unknown class — is counted but can never violate. *)
let test_unknown_series_unbounded () =
  let slo = Slo.create (Scenarios.quickstart ()) in
  Slo.observe slo ~source:"nic" ~cls:None ~latency_us:1e12;
  Alcotest.(check bool) "still ok" true (Slo.ok slo);
  match verdict slo ~source:"nic" ~cls:None with
  | Some v ->
      Alcotest.(check int) "counted" 1 v.Slo.sv_count;
      Alcotest.(check bool) "no bound" true (v.Slo.sv_bound_us = None);
      Alcotest.(check int) "no violations" 0 v.Slo.sv_violations
  | None -> Alcotest.fail "unknown series missing"

(* Fold spans feed the series of their source and class, with the latency
   the simulator reports (completion - arrival), and keep the registry
   gauges current. *)
let test_span_feeds_series () =
  let registry = Registry.create () in
  let slo = Slo.create ~registry (Scenarios.quickstart ()) in
  let span ~cls ~completion =
    {
      Irq_fold.irq = 0;
      line = 0;
      source = "nic";
      partition = 1;
      cls;
      arrival = Testutil.us 100;
      top_start = Testutil.us 100;
      top_end = Testutil.us 105;
      decision = Testutil.us 105;
      bh_start = Testutil.us 110;
      completion = Testutil.us completion;
    }
  in
  Slo.span slo (span ~cls:direct ~completion:142);
  Slo.span slo (span ~cls:direct ~completion:117);
  Slo.span slo (span ~cls:(Some Irq_record.Delayed) ~completion:1_100);
  (match verdict slo ~source:"nic" ~cls:direct with
  | Some v ->
      Alcotest.(check int) "two samples" 2 v.Slo.sv_count;
      Testutil.close ~eps:1e-9 "worst" 42.0 v.Slo.sv_worst_us
  | None -> Alcotest.fail "span did not feed the direct series");
  (match verdict slo ~source:"nic" ~cls:(Some Irq_record.Delayed) with
  | Some v -> Alcotest.(check int) "delayed series apart" 1 v.Slo.sv_count
  | None -> Alcotest.fail "span did not feed the delayed series");
  let text = Registry.to_prometheus registry in
  Alcotest.(check bool) "worst gauge exposed" true
    (contains text "rthv_slo_worst_latency_us");
  Alcotest.(check bool) "samples counter exposed" true
    (contains text "rthv_slo_samples_total")

(* Archived certification evidence: a simulator trace written to a store
   replays clean through the oracle without a JSONL detour. *)
let test_audit_store_clean () =
  let config = Scenarios.conformant () in
  let trace = Hyp_trace.create ~capacity:(1 lsl 20) () in
  let sim = Hyp_sim.create ~trace config in
  Hyp_sim.run sim;
  Testutil.with_temp (fun path ->
      ignore (Store.write_entries path (Hyp_trace.to_list trace) : int);
      match Oracle.audit_store (Oracle.of_config config) path with
      | Ok diags ->
          Alcotest.(check (list string)) "no errors" []
            (List.sort_uniq compare
               (List.map (fun d -> d.D.code) (D.errors diags)))
      | Error msg -> Alcotest.failf "audit_store failed: %s" msg)

let test_audit_store_missing_file () =
  match Oracle.audit_store (Oracle.of_config (Scenarios.quickstart ())) "/nonexistent/no.rts" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing store must be an Error"

let suite =
  [
    Alcotest.test_case "conformant burns under one" `Quick
      test_conformant_burns_under_one;
    Alcotest.test_case "violation counted per sample" `Quick
      test_violation_counted;
    Alcotest.test_case "unknown series unbounded" `Quick
      test_unknown_series_unbounded;
    Alcotest.test_case "span feeds the series" `Quick test_span_feeds_series;
    Alcotest.test_case "audit store clean" `Quick test_audit_store_clean;
    Alcotest.test_case "audit store missing file" `Quick
      test_audit_store_missing_file;
  ]
