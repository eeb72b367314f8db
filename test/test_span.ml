(* Per-IRQ causal spans: component decomposition, the attribution
   waterfalls folded from a live simulation's trace, and bound headroom
   against the paper's analytic latency bounds. *)

module Registry = Rthv_obs.Registry
module Irq_fold = Rthv_core.Irq_fold
module Irq_record = Rthv_core.Irq_record
module Attribution = Rthv_core.Attribution
module Hyp_sim = Rthv_core.Hyp_sim
module Hyp_trace = Rthv_core.Hyp_trace
module Scenarios = Rthv_check.Scenarios
module Headroom = Rthv_check.Headroom
module Slo = Rthv_check.Slo

let us = Testutil.us

(* --- span decomposition -------------------------------------------------- *)

let span cls =
  {
    Irq_fold.irq = 3;
    line = 0;
    source = "nic";
    partition = 1;
    cls;
    arrival = us 100;
    top_start = us 102;
    top_end = us 107;
    decision = us 108;
    bh_start = us 120;
    completion = us 160;
  }

let test_components_sum_to_latency () =
  List.iter
    (fun (cls, wait) ->
      let sp = span cls in
      let total =
        List.fold_left (fun acc (_, v) -> acc +. v) 0.0 (Irq_fold.components sp)
      in
      Alcotest.(check (float 1e-9)) "sum = latency" (Irq_fold.latency_us sp)
        total;
      Alcotest.(check (float 1e-9)) "latency = completion - arrival" 60.0
        (Irq_fold.latency_us sp);
      Alcotest.(check (list string))
        "component order"
        [ "top_wait"; "top_handler"; "decision_wait"; wait; "bottom_handler" ]
        (List.map fst (Irq_fold.components sp)))
    [
      (Some Irq_record.Direct, "queue_wait");
      (Some Irq_record.Interposed, "interposed_wait");
      (Some Irq_record.Delayed, "slot_wait");
    ]

(* --- attribution over a live simulation ---------------------------------- *)

let test_attribution_collects_simulation () =
  let attr = Attribution.create () in
  let config = Scenarios.quickstart () in
  let trace = Hyp_trace.create () in
  Irq_fold.attach ~config trace (Attribution.record attr);
  let sim = Hyp_sim.create ~trace config in
  Hyp_sim.run sim;
  let stats = Hyp_sim.stats sim in
  Alcotest.(check int) "one span per completion"
    stats.Hyp_sim.completed_irqs (Attribution.total_spans attr);
  let rows = Attribution.rows attr in
  Alcotest.(check bool) "several classes" true (List.length rows >= 2);
  Alcotest.(check int) "row counts add up" stats.Hyp_sim.completed_irqs
    (List.fold_left (fun acc r -> acc + r.Attribution.r_count) 0 rows);
  List.iter
    (fun r ->
      let s = r.Attribution.r_latency in
      Alcotest.(check bool) "p50 <= p99 <= max" true
        (s.Attribution.st_p50 <= s.Attribution.st_p99 +. 1e-9
        && s.Attribution.st_p99 <= s.Attribution.st_max +. 1e-9);
      (* Linearity: component means sum to the end-to-end mean. *)
      let component_mean_sum =
        List.fold_left
          (fun acc (_, c) -> acc +. c.Attribution.st_mean)
          0.0 r.Attribution.r_components
      in
      Alcotest.(check (float 1e-6)) "component means sum to latency mean"
        s.Attribution.st_mean component_mean_sum;
      match r.Attribution.r_worst with
      | None -> Alcotest.fail "worst span missing"
      | Some w ->
          Alcotest.(check bool) "worst span monotone" true
            (Testutil.monotone w);
          Alcotest.(check (float 1e-6)) "worst matches max"
            s.Attribution.st_max (Irq_fold.latency_us w))
    rows

(* --- bound headroom ------------------------------------------------------ *)

(* The SLO fold judges every latency of a live run against its bound. *)
let measure ?registry config =
  let slo = Slo.create ?registry config in
  let trace = Hyp_trace.create ~capacity:(1 lsl 20) () in
  Irq_fold.attach ~config trace (Slo.span slo);
  Hyp_sim.run (Hyp_sim.create ~trace config);
  slo

let test_headroom_non_negative_on_good_scenarios () =
  (* The acceptance property: on every conformant scenario the measured
     worst case stays below the analytic bound for every handling class. *)
  List.iter
    (fun (name, build) ->
      let verdicts = Slo.verdicts (measure (build ())) in
      Alcotest.(check bool)
        (name ^ ": some series measured")
        true (verdicts <> []);
      List.iter
        (fun v ->
          match v.Slo.sv_bound_us with
          | Some bound when v.Slo.sv_worst_us > bound ->
              Alcotest.failf
                "%s: %s/%s measured %.1fus exceeds bound %.1fus" name
                v.Slo.sv_source
                (Irq_fold.class_name v.Slo.sv_class)
                v.Slo.sv_worst_us bound
          | _ -> ())
        verdicts)
    Scenarios.good

let test_headroom_gauges_surface () =
  let registry = Registry.create () in
  ignore (measure ~registry (Scenarios.quickstart ()) : Slo.t);
  let rows = Registry.snapshot registry in
  let count name =
    List.length (List.filter (fun r -> r.Registry.name = name) rows)
  in
  Alcotest.(check bool) "bound gauges present" true
    (count "rthv_slo_latency_bound_us" > 0);
  Alcotest.(check bool) "burn gauges present" true
    (count "rthv_slo_burn_ratio" > 0)

let test_interposed_bound_tighter_when_conformant () =
  (* On the statically conformant stream, eq. (16) applies and must beat
     the baseline (eq. 11-12) bound used for the delayed class. *)
  let config = Scenarios.conformant () in
  let bounds = Headroom.bounds config in
  match
    ( Headroom.bound_for bounds ~source:"nic" ~cls:"interposed",
      Headroom.bound_for bounds ~source:"nic" ~cls:"delayed" )
  with
  | Some interposed, Some delayed ->
      Alcotest.(check bool)
        (Printf.sprintf "eq.16 (%.1f) < baseline (%.1f)" interposed delayed)
        true
        (interposed < delayed)
  | _ -> Alcotest.fail "expected finite bounds for both classes"

let test_unshaped_source_has_no_interposed_bound () =
  let config = Scenarios.quickstart () in
  let unmonitored =
    {
      config with
      Rthv_core.Config.sources =
        List.map
          (fun s -> { s with Rthv_core.Config.shaping = Rthv_core.Config.No_shaping })
          config.Rthv_core.Config.sources;
    }
  in
  let bounds = Headroom.bounds unmonitored in
  Alcotest.(check (option (float 1e-9)))
    "no eq.16 bound without a monitor" None
    (Headroom.bound_for bounds ~source:"nic" ~cls:"interposed")

let suite =
  [
    Alcotest.test_case "components sum to latency" `Quick
      test_components_sum_to_latency;
    Alcotest.test_case "attribution over a live simulation" `Quick
      test_attribution_collects_simulation;
    Alcotest.test_case "headroom non-negative on good scenarios" `Slow
      test_headroom_non_negative_on_good_scenarios;
    Alcotest.test_case "headroom gauges surface" `Quick
      test_headroom_gauges_surface;
    Alcotest.test_case "eq.16 tighter than baseline when conformant" `Quick
      test_interposed_bound_tighter_when_conformant;
    Alcotest.test_case "no interposed bound when unshaped" `Quick
      test_unshaped_source_has_no_interposed_bound;
  ]
