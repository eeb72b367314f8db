(* Static configuration analyzer: every rule must fire on a crafted bad
   configuration and stay silent on a good one. *)

module Cycles = Rthv_engine.Cycles
module Config = Rthv_core.Config
module Task = Rthv_rtos.Task
module DF = Rthv_analysis.Distance_fn
module D = Rthv_check.Diagnostic
module Lint = Rthv_check.Lint
module Scenarios = Rthv_check.Scenarios

let us = Testutil.us

let codes diags = List.sort_uniq compare (List.map (fun d -> d.D.code) diags)
let fires code diags = List.exists (fun d -> d.D.code = code) diags

let check_fires msg code diags =
  if not (fires code diags) then
    Alcotest.failf "%s: expected %s among %s" msg code
      (String.concat "," (codes diags))

let check_silent msg code diags =
  if fires code diags then Alcotest.failf "%s: %s fired unexpectedly" msg code

(* A small monitored system that every rule is happy with. *)
let baseline ?(shaping = Config.Fixed_monitor (DF.d_min (us 2_000)))
    ?(interarrivals = Rthv_workload.Gen.constant ~period:(us 4_000) ~count:50)
    ?(c_bh_us = 40) ?(partitions = None) () =
  let partitions =
    match partitions with
    | Some ps -> ps
    | None ->
        [
          Config.partition ~name:"a" ~slot_us:5_000 ();
          Config.partition ~name:"b" ~slot_us:5_000 ();
        ]
  in
  Config.make ~partitions
    ~sources:
      [
        Config.source ~name:"s" ~line:0 ~subscriber:1 ~c_th_us:5 ~c_bh_us
          ~interarrivals ~shaping ();
      ]
    ()

let test_baseline_clean () =
  Alcotest.(check (list string)) "no findings" [] (codes (Lint.analyze (baseline ())))

let test_rthv001_short_circuits () =
  let bad =
    Config.make
      ~partitions:[ Config.partition ~name:"a" ~slot_us:5_000 () ]
      ~sources:
        [
          Config.source ~name:"s" ~line:0 ~subscriber:7 ~c_th_us:5 ~c_bh_us:40
            ~interarrivals:[||] ();
        ]
      ()
  in
  let diags = Lint.analyze bad in
  Alcotest.(check (list string)) "only RTHV001" [ "RTHV001" ] (codes diags);
  Alcotest.(check bool) "is error" true (List.for_all D.is_error diags)

let test_rthv002_tiny_slot () =
  let config =
    baseline
      ~partitions:
        (Some
           [
             Config.partition ~name:"tiny" ~slot_us:40 ();
             Config.partition ~name:"b" ~slot_us:5_000 ();
           ])
      ()
  in
  check_fires "tiny slot" "RTHV002" (Lint.analyze config);
  check_silent "normal slots" "RTHV002" (Lint.analyze (baseline ()))

let test_rthv003_unbounded_condition () =
  let config = baseline ~shaping:(Config.Fixed_monitor (DF.unbounded ~l:2)) () in
  check_fires "unbounded" "RTHV003" (Lint.analyze config);
  check_silent "bounded" "RTHV003" (Lint.analyze (baseline ()))

let test_rthv004_overload () =
  (* d_min 100us against C'_BH ~ 254us: >100% long-term utilisation. *)
  let config =
    baseline ~c_bh_us:150 ~shaping:(Config.Fixed_monitor (DF.d_min (us 100))) ()
  in
  check_fires "overload" "RTHV004" (Lint.analyze config);
  check_silent "7% load" "RTHV004" (Lint.analyze (baseline ()))

let test_rthv005_certificate () =
  (* Task utilisation (10%) is well under the TDMA share (47.5%), yet the
     grant's interference (c_bh_eff ~ 204us every 300us, ~68%) starves the
     task: only the full certificate catches it. *)
  let partitions =
    [
      Config.partition ~name:"victim" ~slot_us:1_000
        ~tasks:[ Task.spec ~name:"t" ~period_us:4_000 ~wcet_us:400 () ]
        ();
      Config.partition ~name:"host" ~slot_us:1_000 ();
    ]
  in
  let config =
    baseline ~partitions:(Some partitions) ~c_bh_us:100
      ~shaping:(Config.Fixed_monitor (DF.d_min (us 300)))
      ()
  in
  let diags = Lint.analyze config in
  check_fires "starved task" "RTHV005" diags;
  check_silent "utilisation rule stays quiet" "RTHV006" diags;
  let ok =
    baseline ~partitions:(Some partitions) ~c_bh_us:10
      ~shaping:(Config.Fixed_monitor (DF.d_min (us 2_000)))
      ()
  in
  check_silent "light grant schedulable" "RTHV005" (Lint.analyze ok)

let test_rthv006_partition_overload () =
  let partitions =
    [
      Config.partition ~name:"fat" ~slot_us:1_000
        ~tasks:[ Task.spec ~name:"t" ~period_us:4_000 ~wcet_us:2_000 () ]
        ();
      Config.partition ~name:"b" ~slot_us:3_000 ();
    ]
  in
  check_fires "50% tasks in 25% slot" "RTHV006"
    (Lint.analyze (baseline ~partitions:(Some partitions) ()));
  check_silent "fits" "RTHV006" (Lint.analyze (baseline ()))

let test_rthv007_learning () =
  let zero =
    baseline
      ~shaping:(Config.Self_learning { l = 1; learn_events = 0; bound = None })
      ()
  in
  check_fires "learn_events = 0" "RTHV007" (Lint.analyze zero);
  let never_runs =
    baseline
      ~shaping:(Config.Self_learning { l = 1; learn_events = 999; bound = None })
      ()
  in
  check_fires "never leaves learning" "RTHV007" (Lint.analyze never_runs);
  let ok =
    baseline
      ~shaping:(Config.Self_learning { l = 1; learn_events = 5; bound = None })
      ()
  in
  check_silent "sane learning" "RTHV007" (Lint.analyze ok)

let test_rthv008_vacuous_grant () =
  let config = baseline ~interarrivals:[||] () in
  check_fires "never fires" "RTHV008" (Lint.analyze config);
  check_silent "fires" "RTHV008" (Lint.analyze (baseline ()))

let test_rthv009_workload_exceeds_condition () =
  let config =
    baseline
      ~interarrivals:(Rthv_workload.Gen.constant ~period:(us 500) ~count:50)
      ()
  in
  check_fires "2000us condition, 500us workload" "RTHV009"
    (Lint.analyze config);
  check_silent "4000us workload" "RTHV009" (Lint.analyze (baseline ()))

let test_rthv010_token_bucket_burst () =
  let burst cap =
    baseline
      ~shaping:(Config.Token_bucket { capacity = cap; refill = us 2_000 })
      ()
  in
  check_fires "capacity 4" "RTHV010" (Lint.analyze (burst 4));
  check_silent "capacity 1" "RTHV010" (Lint.analyze (burst 1))

let test_rthv011_duplicate_names () =
  let partitions =
    [
      Config.partition ~name:"same" ~slot_us:5_000 ();
      Config.partition ~name:"same" ~slot_us:5_000 ();
    ]
  in
  check_fires "duplicates" "RTHV011"
    (Lint.analyze (baseline ~partitions:(Some partitions) ()));
  check_silent "unique" "RTHV011" (Lint.analyze (baseline ()))

let test_rthv012_handler_slot_fit () =
  (* Warning: a plain bottom handler that cannot finish in one effective
     slot.  Error: a grant whose C'_BH exceeds the whole subscriber slot. *)
  let warning = baseline ~shaping:Config.No_shaping ~c_bh_us:4_980 () in
  (match List.filter (fun d -> d.D.code = "RTHV012") (Lint.analyze warning) with
  | [ d ] ->
      Alcotest.(check string) "warning severity" "warning" (D.severity_name d.D.severity)
  | ds -> Alcotest.failf "expected one RTHV012, got %d" (List.length ds));
  let partitions =
    [
      Config.partition ~name:"a" ~slot_us:9_800 ();
      Config.partition ~name:"narrow" ~slot_us:200 ();
    ]
  in
  let error =
    baseline ~partitions:(Some partitions) ~c_bh_us:150
      ~shaping:(Config.Fixed_monitor (DF.d_min (us 5_000)))
      ()
  in
  (match List.filter (fun d -> d.D.code = "RTHV012") (Lint.analyze error) with
  | [ d ] ->
      Alcotest.(check string) "error severity" "error" (D.severity_name d.D.severity)
  | ds -> Alcotest.failf "expected one RTHV012, got %d" (List.length ds));
  check_silent "fits" "RTHV012" (Lint.analyze (baseline ()))

let test_rthv013_budget_starves_slot () =
  (* C'_BH ~ 28877 cycles; a foreign 5000us slot (1M cycles at 200MHz) is
     consumed once the aligned-window bound 2 * per_cycle * C'_BH reaches
     it — per_cycle 20 does, per_cycle 2 stays far below. *)
  let budget per_cycle = baseline ~shaping:(Config.Budgeted { per_cycle }) () in
  let diags = Lint.analyze (budget 20) in
  check_fires "greedy budget" "RTHV013" diags;
  (match List.filter (fun d -> d.D.code = "RTHV013") diags with
  | d :: _ ->
      Alcotest.(check string) "error severity" "error"
        (D.severity_name d.D.severity)
  | [] -> Alcotest.fail "RTHV013 missing");
  check_silent "modest budget" "RTHV013" (Lint.analyze (budget 2));
  check_silent "not a budget" "RTHV013" (Lint.analyze (baseline ()))

let test_rthv014_composite_bucket () =
  let composite refill_us =
    baseline
      ~shaping:
        (Config.Monitor_and_bucket
           { fn = DF.d_min (us 2_000); capacity = 1; refill = us refill_us })
      ()
  in
  let severity config =
    match
      List.filter (fun d -> d.D.code = "RTHV014") (Lint.analyze config)
    with
    | [ d ] -> D.severity_name d.D.severity
    | ds -> Alcotest.failf "expected one RTHV014, got %d" (List.length ds)
  in
  (* refill <= delta^-(2): a token is always back in time — vacuous. *)
  Alcotest.(check string) "vacuous bucket is info" "info"
    (severity (composite 2_000));
  (* refill > delta^-(2): the bucket can deny conforming activations. *)
  Alcotest.(check string) "binding bucket is warning" "warning"
    (severity (composite 5_000));
  check_silent "plain monitor" "RTHV014" (Lint.analyze (baseline ()))

let test_rthv015_budget_never_binds () =
  (* The 4000us-period workload puts at most 3 arrivals in any aligned
     10000us cycle window: a budget of 5 is dead configuration. *)
  let budget per_cycle = baseline ~shaping:(Config.Budgeted { per_cycle }) () in
  check_fires "oversized budget" "RTHV015" (Lint.analyze (budget 5));
  check_silent "budget that can bind" "RTHV015" (Lint.analyze (budget 2));
  check_silent "not a budget" "RTHV015" (Lint.analyze (baseline ()))

let test_rthv016_sole_interposer () =
  (* A second active shaped source voids eq. (16)'s sole-interposer
     assumption for the monitored one. *)
  let two_sources =
    Config.make
      ~partitions:
        [
          Config.partition ~name:"a" ~slot_us:5_000 ();
          Config.partition ~name:"b" ~slot_us:5_000 ();
        ]
      ~sources:
        [
          Config.source ~name:"s" ~line:0 ~subscriber:1 ~c_th_us:5 ~c_bh_us:40
            ~interarrivals:(Rthv_workload.Gen.constant ~period:(us 4_000) ~count:50)
            ~shaping:(Config.Fixed_monitor (DF.d_min (us 2_000)))
            ();
          Config.source ~name:"rival" ~line:1 ~subscriber:0 ~c_th_us:5
            ~c_bh_us:40
            ~interarrivals:(Rthv_workload.Gen.constant ~period:(us 4_000) ~count:50)
            ~shaping:(Config.Token_bucket { capacity = 1; refill = us 4_000 })
            ();
        ]
      ()
  in
  let diags = Lint.analyze two_sources in
  check_fires "two interposers" "RTHV016" diags;
  (match List.filter (fun d -> d.D.code = "RTHV016") diags with
  | d :: _ ->
      Alcotest.(check string) "warning severity" "warning"
        (D.severity_name d.D.severity)
  | [] -> Alcotest.fail "RTHV016 missing");
  check_silent "sole interposer" "RTHV016" (Lint.analyze (baseline ()))

let test_rthv017_weighted_starves_subscriber () =
  (* The bottom handler fits the declared 6000us slot but not the 3000us
     the weighted plan actually apportions. *)
  let config =
    Config.make
      ~plan:(Config.Weighted_plan { cycle = us 12_000; weights = [| 1; 3 |] })
      ~partitions:
        [
          Config.partition ~name:"starved" ~slot_us:6_000 ();
          Config.partition ~name:"fat" ~slot_us:6_000 ();
        ]
      ~sources:
        [
          Config.source ~name:"s" ~line:0 ~subscriber:0 ~c_th_us:5
            ~c_bh_us:4_000
            ~interarrivals:(Rthv_workload.Gen.constant ~period:(us 20_000) ~count:50)
            ~shaping:(Config.Fixed_monitor (DF.d_min (us 20_000)))
            ();
        ]
      ()
  in
  check_fires "weighted starvation" "RTHV017" (Lint.analyze config);
  check_silent "declared slots in force" "RTHV017" (Lint.analyze (baseline ()))

let test_rthv018_interval_refutes_closed () =
  check_fires "policy-curve refutation" "RTHV018"
    (Lint.analyze (Scenarios.demo_policy_bad ()));
  check_silent "grant-only system" "RTHV018" (Lint.analyze (baseline ()))

let test_rthv019_serialization_ceiling () =
  (* d_min 100us admits ~100 interpositions per 10000us cycle, but one
     serialized C'_BH of ~194us fits at most ~51: provably conservative. *)
  let config =
    baseline ~c_bh_us:150 ~shaping:(Config.Fixed_monitor (DF.d_min (us 100))) ()
  in
  check_fires "over-admitting condition" "RTHV019" (Lint.analyze config);
  check_silent "condition under the ceiling" "RTHV019"
    (Lint.analyze (baseline ()))

let test_rthv020_sustained_demand () =
  (* 300us of bottom half every 1000us lands ~40% demand (after eq. 13)
     on a 10% TDMA share. *)
  let partitions =
    [
      Config.partition ~name:"starved" ~slot_us:1_000 ();
      Config.partition ~name:"rest" ~slot_us:9_000 ();
    ]
  in
  let config =
    Config.make ~partitions
      ~sources:
        [
          Config.source ~name:"s" ~line:0 ~subscriber:0 ~c_th_us:5
            ~c_bh_us:300
            ~interarrivals:(Rthv_workload.Gen.constant ~period:(us 1_000) ~count:200)
            ~shaping:(Config.Fixed_monitor (DF.d_min (us 1_000)))
            ();
        ]
      ()
  in
  check_fires "sustained overload" "RTHV020" (Lint.analyze config);
  check_silent "sustainable demand" "RTHV020" (Lint.analyze (baseline ()))

let test_weighted_plan_linted_on_effective_slots () =
  (* The partition record says 5000us each, but the weighted plan squeezes
     partition "tiny" to ~25us — too small to cover the 50us slot-entry
     context switch.  The linter must see the plan's slots, not the
     partition records. *)
  let partitions =
    [
      Config.partition ~name:"tiny" ~slot_us:5_000 ();
      Config.partition ~name:"big" ~slot_us:5_000 ();
    ]
  in
  let config =
    Config.make ~partitions
      ~plan:(Config.Weighted_plan { cycle = us 10_000; weights = [| 1; 400 |] })
      ~sources:
        [
          Config.source ~name:"s" ~line:0 ~subscriber:1 ~c_th_us:5 ~c_bh_us:40
            ~interarrivals:(Rthv_workload.Gen.constant ~period:(us 4_000) ~count:50)
            ~shaping:(Config.Fixed_monitor (DF.d_min (us 2_000)))
            ();
        ]
      ()
  in
  check_fires "squeezed slot" "RTHV002" (Lint.analyze config)

let test_c_bh_eff_eq13 () =
  (* C'_BH = C_BH + C_sched + 2*C_ctx = 8000 + 877 + 2*10000 cycles. *)
  Testutil.check_cycles "eq. (13)" 28_877
    (Rthv_check.Absint.c_bh_eff ~platform:Rthv_hw.Platform.arm926ejs_200mhz
       ~c_bh:(us 40))

let test_example_scenarios_error_free () =
  List.iter
    (fun (name, build) ->
      let errors = D.errors (Lint.analyze (build ())) in
      if errors <> [] then
        Alcotest.failf "%s has lint errors: %s" name
          (String.concat "," (codes errors)))
    Scenarios.good

let test_demo_bad_fires_every_rule () =
  let diags = Lint.analyze (Scenarios.demo_bad ()) in
  List.iter
    (fun i -> check_fires "demo_bad" (Printf.sprintf "RTHV%03d" i) diags)
    [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 16; 19; 20 ]

(* The per-scenario expected-rule lists are derived from the linter itself
   (see the Scenarios mli), not maintained by hand: the pinned property is
   that the derivation is deterministic and that the scenario set as a
   whole exercises every catalogued rule except RTHV001 (which no valid
   configuration can fire — a crafted invalid one covers it above). *)
let test_scenario_rules_derived_from_linter () =
  let derive () =
    List.map
      (fun (name, build) -> (name, codes (Lint.analyze (build ()))))
    Scenarios.all
  in
  let derived = derive () in
  Alcotest.(check (list (pair string (list string))))
    "derivation is deterministic" derived (derive ());
  List.iter
    (fun (name, _) ->
      Alcotest.(check (list string))
        (name ^ " error-free") []
        (codes (D.errors (Lint.analyze ((Option.get (Scenarios.find name)) ())))))
    Scenarios.good;
  List.iter
    (fun (name, _) ->
      let fired = List.assoc name derived in
      if fired = [] then Alcotest.failf "%s fires no rules" name)
    Scenarios.bad;
  let union = List.sort_uniq compare (List.concat_map snd derived) in
  List.iter
    (fun (code, _) ->
      if code <> "RTHV001" && not (List.mem code union) then
        Alcotest.failf "rule %s fires on no scenario" code)
    Lint.rules

let test_rules_catalogue () =
  Alcotest.(check int) "20 static rules" 20 (List.length Lint.rules);
  let rule_codes = List.map fst Lint.rules in
  Alcotest.(check (list string)) "distinct codes"
    (List.sort_uniq compare rule_codes)
    (List.sort compare rule_codes)

let test_diagnostic_dedupe () =
  let d1 = D.error ~code:"RTHV005" ~loc:"partition a" "m" in
  let d2 = D.warning ~code:"RTHV010" ~loc:"source s" "w" in
  let deduped = D.dedupe [ d2; d1; d2; d1; d2 ] in
  Alcotest.(check int) "two groups" 2 (List.length deduped);
  (match deduped with
  | [ (a, na); (b, nb) ] ->
      Alcotest.(check string) "errors first" "RTHV005" a.D.code;
      Alcotest.(check int) "error count" 2 na;
      Alcotest.(check string) "then warnings" "RTHV010" b.D.code;
      Alcotest.(check int) "warning count" 3 nb
  | _ -> Alcotest.fail "unexpected dedupe shape");
  Alcotest.(check string) "counted rendering"
    "warning[RTHV010] source s: w  (x3)"
    (Format.asprintf "%a" D.pp_counted (d2, 3))

let test_diagnostic_json () =
  let d = D.error ~code:"RTHV001" ~loc:"config" ~hint:"h\"int" "a\nb" in
  Alcotest.(check string) "escaped"
    "{\"scenario\":\"x\",\"code\":\"RTHV001\",\"severity\":\"error\",\"loc\":\"config\",\"message\":\"a\\nb\",\"hint\":\"h\\\"int\"}"
    (D.to_json ~extra:[ ("scenario", "x") ] d)

let suite =
  [
    Alcotest.test_case "baseline clean" `Quick test_baseline_clean;
    Alcotest.test_case "RTHV001 short-circuits" `Quick test_rthv001_short_circuits;
    Alcotest.test_case "RTHV002 tiny slot" `Quick test_rthv002_tiny_slot;
    Alcotest.test_case "RTHV003 unbounded condition" `Quick
      test_rthv003_unbounded_condition;
    Alcotest.test_case "RTHV004 overload" `Quick test_rthv004_overload;
    Alcotest.test_case "RTHV005 certificate" `Quick test_rthv005_certificate;
    Alcotest.test_case "RTHV006 partition overload" `Quick
      test_rthv006_partition_overload;
    Alcotest.test_case "RTHV007 learning" `Quick test_rthv007_learning;
    Alcotest.test_case "RTHV008 vacuous grant" `Quick test_rthv008_vacuous_grant;
    Alcotest.test_case "RTHV009 workload vs condition" `Quick
      test_rthv009_workload_exceeds_condition;
    Alcotest.test_case "RTHV010 token-bucket burst" `Quick
      test_rthv010_token_bucket_burst;
    Alcotest.test_case "RTHV011 duplicate names" `Quick
      test_rthv011_duplicate_names;
    Alcotest.test_case "RTHV012 handler fit" `Quick test_rthv012_handler_slot_fit;
    Alcotest.test_case "RTHV013 budget vs foreign slots" `Quick
      test_rthv013_budget_starves_slot;
    Alcotest.test_case "RTHV014 composite bucket" `Quick
      test_rthv014_composite_bucket;
    Alcotest.test_case "RTHV015 budget never binds" `Quick
      test_rthv015_budget_never_binds;
    Alcotest.test_case "RTHV016 sole interposer" `Quick
      test_rthv016_sole_interposer;
    Alcotest.test_case "RTHV017 weighted starves subscriber" `Quick
      test_rthv017_weighted_starves_subscriber;
    Alcotest.test_case "RTHV018 interval refutes closed form" `Quick
      test_rthv018_interval_refutes_closed;
    Alcotest.test_case "RTHV019 serialization ceiling" `Quick
      test_rthv019_serialization_ceiling;
    Alcotest.test_case "RTHV020 sustained demand" `Quick
      test_rthv020_sustained_demand;
    Alcotest.test_case "weighted plans linted on effective slots" `Quick
      test_weighted_plan_linted_on_effective_slots;
    Alcotest.test_case "eq. (13) helper" `Quick test_c_bh_eff_eq13;
    Alcotest.test_case "example scenarios error-free" `Quick
      test_example_scenarios_error_free;
    Alcotest.test_case "demo_bad fires every rule" `Quick
      test_demo_bad_fires_every_rule;
    Alcotest.test_case "scenario rule lists derived from linter" `Quick
      test_scenario_rules_derived_from_linter;
    Alcotest.test_case "rules catalogue" `Quick test_rules_catalogue;
    Alcotest.test_case "diagnostic dedupe" `Quick test_diagnostic_dedupe;
    Alcotest.test_case "diagnostic JSON" `Quick test_diagnostic_json;
  ]
