(* Trace-invariant oracle: hand-built violating traces must be caught with
   the right code; conforming traces (hand-built and simulator-recorded)
   must audit clean. *)

module Cycles = Rthv_engine.Cycles
module Config = Rthv_core.Config
module Hyp_sim = Rthv_core.Hyp_sim
module Hyp_trace = Rthv_core.Hyp_trace
module DF = Rthv_analysis.Distance_fn
module D = Rthv_check.Diagnostic
module Oracle = Rthv_check.Trace_oracle
module Audit_hook = Rthv_check.Audit_hook
module Scenarios = Rthv_check.Scenarios

let us = Testutil.us

let codes diags = List.sort_uniq compare (List.map (fun d -> d.D.code) diags)
let error_codes diags = codes (D.errors diags)

(* Two 5 ms partitions; line 0 -> partition 1, C_BH = 40us, d_min = 2 ms;
   [count] IRQs every [period_us]. *)
let monitored_config ?(shaping = Config.Fixed_monitor (DF.d_min (us 2_000)))
    ?(count = 20) ?(period_us = 4_000) () =
  Config.make
    ~partitions:
      [
        Config.partition ~name:"a" ~slot_us:5_000 ();
        Config.partition ~name:"b" ~slot_us:5_000 ();
      ]
    ~sources:
      [
        Config.source ~name:"s" ~line:0 ~subscriber:1 ~c_th_us:5 ~c_bh_us:40
          ~interarrivals:
            (Rthv_workload.Gen.constant ~period:(us period_us) ~count)
          ~shaping ();
      ]
    ()

let spec () = Oracle.of_config (monitored_config ())

let e time event = { Hyp_trace.time; event }

(* One well-formed admitted interposition: decision, start, completion, end.
   [finish] controls the window length (execution time, no preemption). *)
let interposition ~irq ~arrival ~start ~finish =
  [
    e arrival (Hyp_trace.Top_handler_run { irq; line = 0 });
    e arrival
      (Hyp_trace.Monitor_decision { irq; line = 0; arrival; verdict = `Admitted });
    e start (Hyp_trace.Interposition_start { irq; target = 1 });
    e finish (Hyp_trace.Bottom_handler_done { irq; partition = 1 });
    e finish (Hyp_trace.Interposition_end { target = 1; reason = `Queue_empty });
  ]

let test_clean_trace () =
  let entries =
    interposition ~irq:0 ~arrival:(us 100) ~start:(us 160) ~finish:(us 180)
    @ interposition ~irq:1 ~arrival:(us 2_200) ~start:(us 2_260)
        ~finish:(us 2_290)
  in
  Alcotest.(check (list string)) "no findings" []
    (codes (Oracle.audit_entries (spec ()) entries))

let test_delta_violation_caught () =
  (* Second admission only 1 ms after the first: d_min is 2 ms. *)
  let entries =
    interposition ~irq:0 ~arrival:(us 100) ~start:(us 160) ~finish:(us 180)
    @ interposition ~irq:1 ~arrival:(us 1_100) ~start:(us 1_160)
        ~finish:(us 1_180)
  in
  Alcotest.(check (list string)) "delta violation" [ "RTHV102" ]
    (error_codes (Oracle.audit_entries (spec ()) entries))

let test_budget_overrun_caught () =
  (* 100us of uninterrupted execution against a 40us budget. *)
  let entries =
    interposition ~irq:0 ~arrival:(us 100) ~start:(us 160) ~finish:(us 260)
  in
  Alcotest.(check (list string)) "budget overrun" [ "RTHV103" ]
    (error_codes (Oracle.audit_entries (spec ()) entries))

let test_budget_allows_preempting_hyp_work () =
  (* Window of 45us + C_Mon, but 5us top handler and one monitor run
     preempted it: execution is exactly the 40us budget — no finding. *)
  let c_mon = (spec ()).Oracle.c_mon in
  let finish = Cycles.( + ) (us 205) c_mon in
  let entries =
    [
      e (us 100) (Hyp_trace.Top_handler_run { irq = 0; line = 0 });
      e (us 100)
        (Hyp_trace.Monitor_decision
           { irq = 0; line = 0; arrival = us 100; verdict = `Admitted });
      e (us 160) (Hyp_trace.Interposition_start { irq = 0; target = 1 });
      e (us 180) (Hyp_trace.Top_handler_run { irq = 1; line = 0 });
      e (us 190)
        (Hyp_trace.Monitor_decision
           { irq = 1; line = 0; arrival = us 175; verdict = `Denied });
      e finish (Hyp_trace.Bottom_handler_done { irq = 0; partition = 1 });
      e finish (Hyp_trace.Interposition_end { target = 1; reason = `Budget_exhausted });
    ]
  in
  Alcotest.(check (list string)) "allowance granted" []
    (error_codes (Oracle.audit_entries (spec ()) entries))

let test_out_of_slot_bottom_handler_caught () =
  let entries =
    [ e (us 100) (Hyp_trace.Bottom_handler_done { irq = 0; partition = 1 }) ]
  in
  Alcotest.(check (list string)) "out of slot" [ "RTHV105" ]
    (error_codes (Oracle.audit_entries (spec ()) entries));
  (* The same completion in the subscriber's own slot is fine. *)
  let in_slot =
    [
      e (us 5_000)
        (Hyp_trace.Slot_switch { from_partition = 0; to_partition = 1 });
      e (us 5_100) (Hyp_trace.Bottom_handler_done { irq = 0; partition = 1 });
    ]
  in
  Alcotest.(check (list string)) "own slot" []
    (error_codes (Oracle.audit_entries (spec ()) in_slot))

let test_non_monotone_timestamps_caught () =
  let entries =
    [
      e (us 200) (Hyp_trace.Top_handler_run { irq = 0; line = 0 });
      e (us 100) (Hyp_trace.Top_handler_run { irq = 1; line = 0 });
    ]
  in
  Alcotest.(check (list string)) "backwards" [ "RTHV101" ]
    (error_codes (Oracle.audit_entries (spec ()) entries))

let test_structural_violations_caught () =
  let end_without_start =
    [ e (us 100) (Hyp_trace.Interposition_end { target = 1; reason = `Queue_empty }) ]
  in
  Alcotest.(check (list string)) "end without start" [ "RTHV106" ]
    (error_codes (Oracle.audit_entries (spec ()) end_without_start));
  let start_without_admission =
    [
      e (us 100) (Hyp_trace.Top_handler_run { irq = 0; line = 0 });
      e (us 160) (Hyp_trace.Interposition_start { irq = 0; target = 1 });
    ]
  in
  Alcotest.(check (list string)) "start without admission" [ "RTHV106" ]
    (error_codes (Oracle.audit_entries (spec ()) start_without_admission))

let test_window_bound_violation_caught () =
  (* A capacity-1 token bucket refilling every 2 ms: five interpositions
     packed into 800us overrun the eq.-(14) window bound even though each
     respects its own budget (and no delta^- condition applies). *)
  let bucket =
    monitored_config
      ~shaping:(Config.Token_bucket { capacity = 1; refill = us 2_000 })
      ()
  in
  let spec = Oracle.of_config bucket in
  let entries =
    List.concat
      (List.init 5 (fun i ->
           let t = us (100 + (i * 200)) in
           interposition ~irq:i ~arrival:t ~start:(Cycles.( + ) t (us 10))
             ~finish:(Cycles.( + ) t (us 50))))
  in
  let diags = Oracle.audit_entries spec entries in
  Alcotest.(check bool) "RTHV104 fires" true
    (List.mem "RTHV104" (error_codes diags));
  (* The same five interpositions at the admitted 2 ms spacing are fine. *)
  let spaced =
    List.concat
      (List.init 5 (fun i ->
           let t = us (100 + (i * 2_000)) in
           interposition ~irq:i ~arrival:t ~start:(Cycles.( + ) t (us 10))
             ~finish:(Cycles.( + ) t (us 50))))
  in
  Alcotest.(check (list string)) "spaced ok" []
    (error_codes (Oracle.audit_entries spec spaced))

let test_raise_completion_matching () =
  let raised irq t = e t (Hyp_trace.Irq_raised { irq; line = 0 }) in
  (* Raised + matching completion pairs: clean. *)
  let clean =
    [ raised 0 (us 90) ]
    @ interposition ~irq:0 ~arrival:(us 100) ~start:(us 160) ~finish:(us 180)
    @ [ raised 1 (us 2_190) ]
    @ interposition ~irq:1 ~arrival:(us 2_200) ~start:(us 2_260)
        ~finish:(us 2_290)
  in
  Alcotest.(check (list string)) "matched pairs clean" []
    (error_codes (Oracle.audit_entries (spec ()) clean));
  (* A completion for an instance that was never raised, in a trace that
     does carry raise events: orphan. *)
  let orphan =
    [ raised 0 (us 90) ]
    @ interposition ~irq:0 ~arrival:(us 100) ~start:(us 160) ~finish:(us 180)
    @ interposition ~irq:1 ~arrival:(us 2_200) ~start:(us 2_260)
        ~finish:(us 2_290)
  in
  Alcotest.(check (list string)) "orphan completion" [ "RTHV108" ]
    (error_codes (Oracle.audit_entries (spec ()) orphan));
  (* The same instance id raised twice: not exactly-one. *)
  let dup_raise = [ raised 0 (us 90); raised 0 (us 95) ] in
  Alcotest.(check (list string)) "duplicate raise" [ "RTHV108" ]
    (error_codes (Oracle.audit_entries (spec ()) dup_raise));
  (* The same instance completed twice (in-slot, so no RTHV105 noise). *)
  let dup_done =
    [
      raised 0 (us 4_900);
      e (us 5_000)
        (Hyp_trace.Slot_switch { from_partition = 0; to_partition = 1 });
      e (us 5_100) (Hyp_trace.Bottom_handler_done { irq = 0; partition = 1 });
      e (us 5_150) (Hyp_trace.Bottom_handler_done { irq = 0; partition = 1 });
    ]
  in
  Alcotest.(check (list string)) "duplicate completion" [ "RTHV108" ]
    (error_codes (Oracle.audit_entries (spec ()) dup_done));
  (* A raise on an unconfigured line is structural, not a matching issue. *)
  let bad_line = [ e (us 100) (Hyp_trace.Irq_raised { irq = 0; line = 9 }) ] in
  Alcotest.(check (list string)) "unconfigured line" [ "RTHV106" ]
    (error_codes (Oracle.audit_entries (spec ()) bad_line))

let test_dropped_entries_skip_audit () =
  let trace = Hyp_trace.create ~capacity:2 () in
  for i = 0 to 5 do
    Hyp_trace.record trace ~time:(us (100 * i))
      (Hyp_trace.Top_handler_run { irq = i; line = 0 })
  done;
  match Oracle.audit (spec ()) trace with
  | [ d ] ->
      Alcotest.(check string) "RTHV107" "RTHV107" d.D.code;
      Alcotest.(check string) "warning" "warning" (D.severity_name d.D.severity)
  | ds -> Alcotest.failf "expected exactly RTHV107, got %d findings" (List.length ds)

(* A re-imported flight dump that dropped entries audits like the ring
   it came from: one RTHV107 warning, not errors about a slot owner the
   dump never recorded. *)
let test_truncated_dump_audit () =
  match
    Rthv_core.Trace_export.entries_of_jsonl_string
      Testutil.truncated_flight_dump
  with
  | Error e -> Alcotest.failf "jsonl: %s" e
  | Ok { Rthv_core.Trace_export.entries; dropped } -> (
      let spec = Oracle.of_config (Scenarios.quickstart ()) in
      match Oracle.audit_entries ~dropped spec entries with
      | [ d ] ->
          Alcotest.(check string) "RTHV107" "RTHV107" d.D.code;
          Alcotest.(check string) "warning" "warning"
            (D.severity_name d.D.severity)
      | ds ->
          Alcotest.failf "expected exactly RTHV107, got %s"
            (String.concat ", " (List.map (fun d -> d.D.code) ds)))

(* --- end-to-end: simulator-recorded traces audit clean ------------------ *)

let audit_simulated config =
  let trace = Hyp_trace.create ~capacity:(1 lsl 20) () in
  let sim = Hyp_sim.create ~trace config in
  Hyp_sim.run sim;
  (sim, trace, Oracle.audit (Oracle.of_config config) trace)

let test_simulated_quickstart_clean () =
  let sim, trace, diags = audit_simulated (monitored_config ()) in
  let stats = Hyp_sim.stats sim in
  Alcotest.(check bool) "interpositions happened" true
    (stats.Hyp_sim.interposed > 0);
  Alcotest.(check bool) "trace non-empty" true (Hyp_trace.length trace > 0);
  Alcotest.(check (list string)) "audit clean" [] (error_codes diags)

let test_simulated_scenarios_clean () =
  List.iter
    (fun (name, build) ->
      let _, _, diags = audit_simulated (build ()) in
      match error_codes diags with
      | [] -> ()
      | cs -> Alcotest.failf "%s: audit errors %s" name (String.concat "," cs))
    Scenarios.good

(* A run longer than any ring is audited in full.  200k IRQs record
   1,059,794 events: the installed hook and an attached fold see them all,
   while the same run's 2^20-entry ring, audited after the run, is
   truncated and can only report RTHV107. *)
let test_long_run_audited_in_full () =
  let config = monitored_config ~count:200_000 ~period_us:1_000 () in
  let spec = Oracle.of_config config in
  let trace = Hyp_trace.create ~capacity:(1 lsl 20) () in
  let fold = Oracle.attach spec trace in
  let sim = Hyp_sim.create ~trace config in
  Hyp_sim.run sim;
  Alcotest.(check int) "events" 1_059_794 (Hyp_trace.recorded trace);
  let diags, m = Oracle.finish fold in
  Alcotest.(check (list string)) "live fold: clean, no RTHV107" []
    (codes diags);
  let admitted =
    List.fold_left (fun acc (_, n) -> acc + n) 0 m.Oracle.m_admitted
  in
  Alcotest.(check int) "every admission folded" 59_279 admitted;
  Alcotest.(check int) "admissions match the run"
    (Hyp_sim.stats sim).Hyp_sim.admissions admitted;
  Alcotest.(check (list string)) "recorded ring: truncated" [ "RTHV107" ]
    (codes (Oracle.audit spec trace))

(* One violating run, one fold, four inputs: live on the spill hook, the
   installed hook's ruling, the run's store and its entry list. *)
let test_inputs_agree () =
  let config = Testutil.violating_config () in
  let spec = Oracle.of_config config in
  let render = List.map (Format.asprintf "%a" D.pp) in
  Testutil.with_temp (fun path ->
      let trace = Hyp_trace.create ~capacity:(1 lsl 20) () in
      let writer = Rthv_core.Trace_store.Writer.create path in
      Hyp_trace.set_spill trace (Rthv_core.Trace_store.Writer.add writer);
      let fold = Oracle.attach spec trace in
      let hooked =
        match
          Hyp_sim.run
            (Hyp_sim.create ~trace ~policies:(Testutil.admit_all ()) config)
        with
        | () -> Alcotest.fail "expected Audit_failure"
        | exception Audit_hook.Audit_failure diags -> render diags
      in
      Rthv_core.Trace_store.Writer.close writer;
      let live = render (fst (Oracle.finish fold)) in
      Alcotest.(check int) "findings" 70 (List.length live);
      Alcotest.(check (list string)) "installed hook" live hooked;
      Alcotest.(check (list string)) "entry list" live
        (render (Oracle.audit_entries spec (Hyp_trace.to_list trace)));
      match Oracle.audit_store spec path with
      | Ok diags -> Alcotest.(check (list string)) "store" live (render diags)
      | Error msg -> Alcotest.failf "audit_store: %s" msg)

let test_audit_hook_roundtrip () =
  Alcotest.(check bool) "hook installed by test main" true
    (Audit_hook.installed ());
  (* The hook auto-attaches a trace and audits on run; a conforming config
     must pass... *)
  let sim = Hyp_sim.create (monitored_config ()) in
  Hyp_sim.run sim;
  (* ... and a collected failure must raise Audit_failure with the list. *)
  let spec = spec () in
  let bad =
    [ e (us 100) (Hyp_trace.Bottom_handler_done { irq = 0; partition = 1 }) ]
  in
  let diags = Oracle.audit_entries spec bad in
  (try
     if List.exists D.is_error diags then
       raise (Audit_hook.Audit_failure diags);
     Alcotest.fail "expected errors"
   with Audit_hook.Audit_failure ds ->
     Alcotest.(check (list string)) "carried" [ "RTHV105" ] (error_codes ds));
  let contains ~substring s =
    let n = String.length substring and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = substring || go (i + 1)) in
    n = 0 || go 0
  in
  let rendered = Printexc.to_string (Audit_hook.Audit_failure diags) in
  Alcotest.(check bool) "printer registered" true
    (contains ~substring:"RTHV105" rendered)

let suite =
  [
    Alcotest.test_case "clean trace" `Quick test_clean_trace;
    Alcotest.test_case "RTHV102 delta violation" `Quick
      test_delta_violation_caught;
    Alcotest.test_case "RTHV103 budget overrun" `Quick
      test_budget_overrun_caught;
    Alcotest.test_case "RTHV103 preemption allowance" `Quick
      test_budget_allows_preempting_hyp_work;
    Alcotest.test_case "RTHV105 out-of-slot bottom handler" `Quick
      test_out_of_slot_bottom_handler_caught;
    Alcotest.test_case "RTHV101 monotonicity" `Quick
      test_non_monotone_timestamps_caught;
    Alcotest.test_case "RTHV106 structural" `Quick
      test_structural_violations_caught;
    Alcotest.test_case "RTHV104 window bound" `Quick
      test_window_bound_violation_caught;
    Alcotest.test_case "RTHV108 raise/completion matching" `Quick
      test_raise_completion_matching;
    Alcotest.test_case "RTHV107 dropped entries" `Quick
      test_dropped_entries_skip_audit;
    Alcotest.test_case "RTHV107 from a truncated flight dump" `Quick
      test_truncated_dump_audit;
    Alcotest.test_case "simulated quickstart clean" `Quick
      test_simulated_quickstart_clean;
    Alcotest.test_case "simulated scenarios clean" `Slow
      test_simulated_scenarios_clean;
    Alcotest.test_case "long run audited in full" `Slow
      test_long_run_audited_in_full;
    Alcotest.test_case "live, store and list audits agree" `Quick
      test_inputs_agree;
    Alcotest.test_case "audit hook roundtrip" `Quick test_audit_hook_roundtrip;
  ]
