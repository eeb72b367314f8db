module Admission = Rthv_core.Admission
module Monitor = Rthv_core.Monitor
module Throttle = Rthv_core.Throttle
module Config = Rthv_core.Config
module DF = Rthv_analysis.Distance_fn

let test_never () =
  let a = Admission.never () in
  Alcotest.(check bool) "inactive" false (Admission.active a);
  Alcotest.(check bool) "denies" false (Admission.decide a 100);
  (* An inactive policy is never charged: no modified top handler, no
     C_Mon, so nothing to count. *)
  Alcotest.(check int) "checks never charged" 0 (Admission.checks a);
  Admission.observe a 200;
  Alcotest.(check_raises) "commit rejected"
    (Invalid_argument "Admission.never: nothing is ever admitted") (fun () ->
      Admission.commit a 300)

let test_of_monitor () =
  let a = Admission.of_monitor (Monitor.d_min 1_000) in
  Alcotest.(check bool) "active" true (Admission.active a);
  (* First activation is always admissible (empty history). *)
  Alcotest.(check bool) "first admitted" true (Admission.decide a 0);
  Admission.commit a 0;
  Alcotest.(check bool) "too close denied" false (Admission.decide a 500);
  Alcotest.(check bool) "far enough admitted" true (Admission.decide a 1_000);
  Admission.commit a 1_000;
  Alcotest.(check int) "three paid checks" 3 (Admission.checks a);
  Alcotest.(check bool) "exposes its monitor" true
    (Option.is_some (Admission.monitor a))

let test_of_throttle () =
  let a = Admission.of_throttle (Throttle.create ~capacity:1 ~refill:1_000) in
  Alcotest.(check bool) "token available" true (Admission.decide a 0);
  Admission.commit a 0;
  Alcotest.(check bool) "bucket empty" false (Admission.decide a 100);
  Alcotest.(check bool) "refilled" true (Admission.decide a 1_100);
  Alcotest.(check bool) "no monitor" true
    (Option.is_none (Admission.monitor a))

let test_budgeted () =
  let a = Admission.budgeted ~per_cycle:2 ~cycle:1_000 in
  Alcotest.(check bool) "1st in window" true (Admission.decide a 0);
  Admission.commit a 0;
  Alcotest.(check bool) "2nd in window" true (Admission.decide a 400);
  Admission.commit a 400;
  Alcotest.(check bool) "3rd denied" false (Admission.decide a 800);
  (* Aligned windows: ts=1000 starts window 1 and the budget is fresh. *)
  Alcotest.(check bool) "next window fresh" true (Admission.decide a 1_000);
  Admission.commit a 1_000;
  Alcotest.(check int) "four paid checks" 4 (Admission.checks a);
  Alcotest.(check_raises) "exhausted commit rejected"
    (Invalid_argument "Admission.budgeted: budget exhausted") (fun () ->
      Admission.commit a 1_100;
      Admission.commit a 1_200;
      Admission.commit a 1_300)

let test_budgeted_validation () =
  Alcotest.(check_raises) "per_cycle >= 1"
    (Invalid_argument "Admission.budgeted: per_cycle must be >= 1") (fun () ->
      ignore (Admission.budgeted ~per_cycle:0 ~cycle:1_000));
  Alcotest.(check_raises) "cycle >= 1"
    (Invalid_argument "Admission.budgeted: cycle must be >= 1") (fun () ->
      ignore (Admission.budgeted ~per_cycle:1 ~cycle:0))

let test_all_of_conjunction () =
  (* Monitor alone would admit at t=1000; a 1-deep bucket with a slow refill
     still has no token, so the conjunction denies. *)
  let a =
    Admission.all_of
      [
        Admission.of_monitor (Monitor.d_min 1_000);
        Admission.of_throttle (Throttle.create ~capacity:1 ~refill:5_000);
      ]
  in
  Alcotest.(check bool) "both admit" true (Admission.decide a 0);
  Admission.commit a 0;
  Alcotest.(check bool) "bucket vetoes" false (Admission.decide a 1_000);
  Alcotest.(check bool) "both again" true (Admission.decide a 5_000);
  (* Every component's check runs on every decide (the real top handler
     evaluates its whole predicate): 3 decides x 2 components. *)
  Alcotest.(check int) "checks are summed" 6 (Admission.checks a);
  Alcotest.(check string) "name joined" "monitor+bucket" (Admission.name a)

let test_all_of_empty () =
  Alcotest.(check_raises) "empty conjunction rejected"
    (Invalid_argument "Admission.all_of: no components") (fun () ->
      ignore (Admission.all_of []))

let test_all_of_active () =
  let a = Admission.all_of [ Admission.never (); Admission.budgeted ~per_cycle:1 ~cycle:10 ] in
  Alcotest.(check bool) "never component deactivates" false
    (Admission.active a)

let test_of_shaping () =
  let cycle = 10_000 in
  let case shaping expect_active expect_monitor =
    let a = Admission.of_shaping ~cycle shaping in
    Alcotest.(check bool) "active" expect_active (Admission.active a);
    Alcotest.(check bool) "monitor" expect_monitor
      (Option.is_some (Admission.monitor a))
  in
  case Config.No_shaping false false;
  case (Config.Fixed_monitor (DF.d_min 1_000)) true true;
  case (Config.Self_learning { l = 2; learn_events = 4; bound = None }) true
    true;
  case (Config.Token_bucket { capacity = 2; refill = 1_000 }) true false;
  case (Config.Budgeted { per_cycle = 3 }) true false;
  case
    (Config.Monitor_and_bucket
       { fn = DF.d_min 1_000; capacity = 2; refill = 1_000 })
    true true

let test_budgeted_of_shaping_uses_cycle () =
  (* Budgeted shaping is parameterized by the TDMA cycle length. *)
  let a = Admission.of_shaping ~cycle:100 (Config.Budgeted { per_cycle = 1 }) in
  Alcotest.(check bool) "admit in window 0" true (Admission.decide a 10);
  Admission.commit a 10;
  Alcotest.(check bool) "window 0 exhausted" false (Admission.decide a 90);
  Alcotest.(check bool) "window 1 fresh" true (Admission.decide a 110)

(* The README's running example: an every-other-activation policy the
   Config grammar cannot express, built from closures and counted by the
   wrapper, then injected into a full simulation via ?policies. *)
let test_custom () =
  let parity = ref 0 in
  let a =
    Admission.custom ~name:"every-other"
      ~decide:(fun _ -> !parity mod 2 = 0)
      ~commit:(fun _ -> incr parity)
      ()
  in
  Alcotest.(check bool) "active" true (Admission.active a);
  Alcotest.(check bool) "first admitted" true (Admission.decide a 0);
  Admission.commit a 0;
  Alcotest.(check bool) "second denied" false (Admission.decide a 100);
  Alcotest.(check bool) "still denied" false (Admission.decide a 200);
  parity := 2;
  Alcotest.(check bool) "third admitted" true (Admission.decide a 300);
  Alcotest.(check int) "checks counted by wrapper" 4 (Admission.checks a);
  Alcotest.(check bool) "no monitor" true
    (Option.is_none (Admission.monitor a))

(* [earliest] is the analysis's query: the time [decide] would next admit,
   never counted as a paid check. *)
let earliest a ts =
  let checks = Admission.checks a in
  let e = Admission.earliest a ts in
  Alcotest.(check int) "earliest is not a paid check" checks
    (Admission.checks a);
  e

let test_earliest_monitor () =
  let a =
    Admission.of_monitor (Monitor.fixed (DF.of_entries [| 1_000; 3_000 |]))
  in
  Alcotest.(check int) "empty history admits now" 0 (earliest a 0);
  Admission.commit a 0;
  Alcotest.(check int) "one entry after the newest" 1_000 (earliest a 10);
  Admission.commit a 1_000;
  Alcotest.(check int) "second entry after the older" 3_000 (earliest a 1_500);
  Alcotest.(check bool) "decide agrees" true (Admission.decide a 3_000);
  Alcotest.(check bool) "not a cycle earlier" false (Admission.decide a 2_999)

let test_earliest_bucket () =
  let a = Admission.of_throttle (Throttle.create ~capacity:2 ~refill:1_000) in
  Alcotest.(check int) "full bucket admits now" 0 (earliest a 0);
  Admission.commit a 0;
  Alcotest.(check int) "one token left" 100 (earliest a 100);
  Admission.commit a 100;
  (* Dry: the meter runs from the last refill credit (0), not from the
     consumptions. *)
  Alcotest.(check int) "dry until the next refill" 1_000 (earliest a 200);
  Alcotest.(check int) "a refill later admits at once" 1_500 (earliest a 1_500)

let test_earliest_budget () =
  let a = Admission.budgeted ~per_cycle:1 ~cycle:1_000 in
  Alcotest.(check int) "fresh window admits now" 10 (earliest a 10);
  Admission.commit a 10;
  Alcotest.(check int) "spent: the next window's start" 1_000 (earliest a 20);
  Admission.commit a 1_000;
  Alcotest.(check int) "last cycle of a spent window" 2_000 (earliest a 1_999)

let test_earliest_composite () =
  let a =
    Admission.all_of
      [
        Admission.of_monitor (Monitor.d_min 300);
        Admission.budgeted ~per_cycle:2 ~cycle:1_000;
      ]
  in
  Admission.commit a 0;
  Alcotest.(check int) "monitor decides" 300 (earliest a 0);
  Admission.commit a 300;
  (* The monitor says 600, the spent budget 1000, and at 1000 both agree. *)
  Alcotest.(check int) "settled where both admit" 1_000 (earliest a 300);
  Alcotest.(check bool) "decide agrees" true (Admission.decide a 1_000)

let test_earliest_unpredictable () =
  Alcotest.(check int) "never" max_int (earliest (Admission.never ()) 5);
  let custom =
    Admission.custom ~name:"any" ~decide:(fun _ -> true) ~commit:ignore ()
  in
  Alcotest.(check int) "custom" max_int (earliest custom 5);
  let learning =
    Admission.of_monitor (Monitor.self_learning ~l:1 ~learn_events:4 ())
  in
  Alcotest.(check int) "learning monitor" max_int (earliest learning 5)

let test_policies_injection () =
  let module Hyp_sim = Rthv_core.Hyp_sim in
  let module Gen = Rthv_workload.Gen in
  let config =
    Config.make
      ~partitions:
        [
          Config.partition ~name:"a" ~slot_us:5_000 ();
          Config.partition ~name:"b" ~slot_us:5_000 ();
        ]
      ~sources:
        [
          Config.source ~name:"nic" ~line:0 ~subscriber:1 ~c_th_us:5
            ~c_bh_us:40
            ~interarrivals:
              (Gen.constant ~period:(Rthv_engine.Cycles.of_us 3_000)
                 ~count:200)
            ~shaping:Config.No_shaping ()
        ]
      ()
  in
  (* Unknown source names are rejected up front. *)
  Alcotest.(check_raises) "unknown source rejected"
    (Invalid_argument "Hyp_sim.create: policy for unknown source ghost")
    (fun () ->
      ignore
        (Hyp_sim.create
           ~policies:[ ("ghost", Admission.never ()) ]
           config));
  (* An admit-everything custom policy turns the unshaped baseline (all
     foreign-slot IRQs delayed) into interposed handling, end to end. *)
  let all =
    Admission.custom ~name:"admit-all"
      ~decide:(fun _ -> true)
      ~commit:(fun _ -> ())
      ()
  in
  (* The trace oracle derives its invariants from the configuration's
     shaping, which an injected policy deliberately overrides — audit the
     override against config-derived bounds and RTHV104 fires (correctly:
     an unshaped config promises zero interposition load).  Suspend the
     suite-wide hook for exactly this run. *)
  let was_installed = Rthv_check.Audit_hook.installed () in
  Rthv_check.Audit_hook.uninstall ();
  let stats =
    Fun.protect
      ~finally:(fun () ->
        if was_installed then Rthv_check.Audit_hook.install ())
      (fun () ->
        let sim = Hyp_sim.create ~policies:[ ("nic", all) ] config in
        Hyp_sim.run sim;
        Hyp_sim.stats sim)
  in
  Alcotest.(check bool) "interposes under the custom policy" true
    (stats.Hyp_sim.interposed > 0);
  Alcotest.(check int) "simulator checks = policy checks"
    stats.Hyp_sim.monitor_checks (Admission.checks all);
  (* Without the override the same configuration never interposes. *)
  let base = Hyp_sim.create config in
  Hyp_sim.run base;
  Alcotest.(check int) "baseline stays Figure-4a" 0
    (Hyp_sim.stats base).Hyp_sim.interposed

let suite =
  [
    Alcotest.test_case "never: inactive Figure-4a policy" `Quick test_never;
    Alcotest.test_case "of_monitor drives the monitor" `Quick test_of_monitor;
    Alcotest.test_case "of_throttle drives the bucket" `Quick test_of_throttle;
    Alcotest.test_case "budgeted: aligned windows" `Quick test_budgeted;
    Alcotest.test_case "budgeted: argument validation" `Quick
      test_budgeted_validation;
    Alcotest.test_case "all_of: conjunction + summed checks" `Quick
      test_all_of_conjunction;
    Alcotest.test_case "all_of: empty rejected" `Quick test_all_of_empty;
    Alcotest.test_case "all_of: active iff all active" `Quick
      test_all_of_active;
    Alcotest.test_case "of_shaping covers every variant" `Quick
      test_of_shaping;
    Alcotest.test_case "of_shaping Budgeted uses the cycle" `Quick
      test_budgeted_of_shaping_uses_cycle;
    Alcotest.test_case "custom: closures + counted checks" `Quick test_custom;
    Alcotest.test_case "Hyp_sim ?policies injection" `Quick
      test_policies_injection;
    Alcotest.test_case "earliest: monitor" `Quick test_earliest_monitor;
    Alcotest.test_case "earliest: bucket runs dry" `Quick test_earliest_bucket;
    Alcotest.test_case "earliest: budget window edge" `Quick
      test_earliest_budget;
    Alcotest.test_case "earliest: composite settles" `Quick
      test_earliest_composite;
    Alcotest.test_case "earliest: never, custom, learning" `Quick
      test_earliest_unpredictable;
  ]
