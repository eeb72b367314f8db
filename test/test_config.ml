module Config = Rthv_core.Config
module DF = Rthv_analysis.Distance_fn

let partition name slot = Config.partition ~name ~slot_us:slot ()

let source ?(line = 0) ?(subscriber = 0) ?(shaping = Config.No_shaping) () =
  Config.source ~name:"s" ~line ~subscriber ~c_th_us:5 ~c_bh_us:50
    ~interarrivals:[| 100; 200 |] ~shaping ()

let make ?(partitions = [ partition "a" 100; partition "b" 100 ]) sources =
  Config.make ~partitions ~sources ()

let expect_error config =
  match Config.validate config with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected a validation error"

let test_valid_config () =
  match Config.validate (make [ source () ]) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_no_partitions () = expect_error (make ~partitions:[] [])

let test_bad_subscriber () = expect_error (make [ source ~subscriber:7 () ])

let test_duplicate_lines () =
  expect_error (make [ source ~line:1 (); source ~line:1 () ])

(* Admission policies, monitors, Headroom bounds and records are all keyed
   by source name: two lines sharing a name would share one monitor. *)
let test_duplicate_source_names () =
  let named name line =
    Config.source ~name ~line ~subscriber:0 ~c_th_us:5 ~c_bh_us:50
      ~interarrivals:[| 100 |] ()
  in
  (match Config.validate (make [ named "nic" 0; named "can" 1 ]) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  match
    Config.validate (make [ named "nic" 0; named "can" 1; named "nic" 2 ])
  with
  | Error msg ->
      Alcotest.(check string) "names the duplicate"
        "duplicate source name \"nic\"" msg
  | Ok () -> Alcotest.fail "two sources named nic accepted"

let test_line_out_of_range () = expect_error (make [ source ~line:999 () ])

let test_bad_self_learning () =
  let shaping =
    Config.Self_learning
      { l = 2; learn_events = 5; bound = Some (DF.d_min 100) }
  in
  (* bound has l = 1, monitor wants l = 2 *)
  expect_error (make [ source ~shaping () ])

(* A distance function learned from too short a trace keeps the "no bound
   learned" sentinel in unobserved positions; such a function must be
   rejected as a monitoring condition (its superadditive extension would
   overflow the eq.-(14) arithmetic), while an all-zero (degenerate but
   finite) condition stays structurally valid — the linter flags it as
   RTHV003 instead. *)
let test_sentinel_condition_rejected () =
  let sentinel_fn = DF.of_trace ~l:2 [ 0; 100 ] in
  expect_error
    (make [ source ~shaping:(Config.Fixed_monitor sentinel_fn) () ]);
  expect_error
    (make
       [
         source
           ~shaping:
             (Config.Monitor_and_bucket
                { fn = sentinel_fn; capacity = 1; refill = 100 })
           ();
       ]);
  expect_error
    (make
       [
         source
           ~shaping:
             (Config.Self_learning
                { l = 2; learn_events = 5; bound = Some sentinel_fn })
           ();
       ]);
  match
    Config.validate
      (make [ source ~shaping:(Config.Fixed_monitor (DF.unbounded ~l:1)) () ])
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "degenerate-but-finite rejected: %s" msg

let test_bad_bucket_and_budget () =
  expect_error
    (make
       [
         source ~shaping:(Config.Token_bucket { capacity = 0; refill = 100 }) ();
       ]);
  expect_error
    (make
       [
         source
           ~shaping:
             (Config.Monitor_and_bucket
                { fn = DF.d_min 100; capacity = 1; refill = 0 })
           ();
       ]);
  expect_error (make [ source ~shaping:(Config.Budgeted { per_cycle = 0 }) () ])

let test_plan_validation () =
  let sources = [ source () ] in
  let partitions = [ partition "a" 100; partition "b" 100 ] in
  expect_error
    (Config.make ~partitions ~sources
       ~plan:(Config.Weighted_plan { cycle = Testutil.us 300; weights = [| 1 |] })
       ());
  expect_error
    (Config.make ~partitions ~sources
       ~plan:
         (Config.Weighted_plan { cycle = Testutil.us 300; weights = [| 1; 0 |] })
       ());
  expect_error
    (Config.make ~partitions ~sources
       ~plan:(Config.Weighted_plan { cycle = 1; weights = [| 1; 1 |] })
       ());
  (* A cycle length, or a cycle times the weight sum, past max_int. *)
  let half_us = (max_int / Rthv_engine.Cycles.cycles_per_us / 2) + 1 in
  expect_error
    (Config.make
       ~partitions:[ partition "a" half_us; partition "b" half_us ]
       ~sources ());
  expect_error
    (Config.make ~partitions ~sources
       ~plan:(Config.Weighted_plan { cycle = max_int / 2; weights = [| 2; 1 |] })
       ());
  match
    Config.validate
      (Config.make ~partitions ~sources
         ~plan:
           (Config.Weighted_plan
              { cycle = Testutil.us 300; weights = [| 2; 1 |] })
         ())
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "valid weighted plan rejected: %s" msg

let test_effective_slots () =
  let partitions = [ partition "a" 100; partition "b" 100 ] in
  let config =
    Config.make ~partitions ~sources:[ source () ]
      ~plan:
        (Config.Weighted_plan { cycle = Testutil.us 300; weights = [| 2; 1 |] })
      ()
  in
  Alcotest.(check (array int))
    "weighted plan overrides partition slots"
    [| Testutil.us 200; Testutil.us 100 |]
    (Config.effective_slots config);
  Testutil.check_cycles "tdma follows the plan" (Testutil.us 300)
    (Rthv_core.Tdma.cycle_length (Config.tdma config))

let test_boundary_policy () =
  let open Rthv_core in
  let default = make [ source () ] in
  Alcotest.(check bool) "default defers" true
    (Config.finish_bh_at_boundary default);
  let strict =
    Config.make
      ~partitions:[ partition "a" 100; partition "b" 100 ]
      ~sources:[ source () ] ~boundary:Boundary_policy.Strict_cut ()
  in
  Alcotest.(check bool) "strict cut does not defer" false
    (Config.finish_bh_at_boundary strict);
  (* The legacy flag still works and the explicit policy wins over it. *)
  let legacy =
    Config.make
      ~partitions:[ partition "a" 100; partition "b" 100 ]
      ~sources:[ source () ] ~finish_bh_at_boundary:false ()
  in
  Alcotest.(check bool) "legacy flag mapped" false
    (Config.finish_bh_at_boundary legacy);
  let explicit_wins =
    Config.make
      ~partitions:[ partition "a" 100; partition "b" 100 ]
      ~sources:[ source () ] ~finish_bh_at_boundary:false
      ~boundary:Boundary_policy.Finish_bottom_handler ()
  in
  Alcotest.(check bool) "explicit policy wins" true
    (Config.finish_bh_at_boundary explicit_wins)

let test_tdma_derivation () =
  let config = make [ source () ] in
  let tdma = Config.tdma config in
  Alcotest.(check int) "two partitions" 2 (Rthv_core.Tdma.partitions tdma);
  Testutil.check_cycles "cycle" (Testutil.us 200)
    (Rthv_core.Tdma.cycle_length tdma)

let test_constructor_validation () =
  Alcotest.check_raises "slot must be positive"
    (Invalid_argument "Config.partition: slot must be positive") (fun () ->
      ignore (Config.partition ~name:"x" ~slot_us:0 () : Config.partition));
  Alcotest.check_raises "wcet must be positive"
    (Invalid_argument "Config.source: handler WCETs must be positive")
    (fun () ->
      ignore
        (Config.source ~name:"x" ~line:0 ~subscriber:0 ~c_th_us:0 ~c_bh_us:1
           ~interarrivals:[||] ()
          : Config.source))

let suite =
  [
    Alcotest.test_case "valid config accepted" `Quick test_valid_config;
    Alcotest.test_case "no partitions rejected" `Quick test_no_partitions;
    Alcotest.test_case "bad subscriber rejected" `Quick test_bad_subscriber;
    Alcotest.test_case "duplicate lines rejected" `Quick test_duplicate_lines;
    Alcotest.test_case "duplicate source names rejected" `Quick
      test_duplicate_source_names;
    Alcotest.test_case "line range checked" `Quick test_line_out_of_range;
    Alcotest.test_case "self-learning params checked" `Quick
      test_bad_self_learning;
    Alcotest.test_case "sentinel monitoring conditions rejected" `Quick
      test_sentinel_condition_rejected;
    Alcotest.test_case "bucket/budget params checked" `Quick
      test_bad_bucket_and_budget;
    Alcotest.test_case "weighted plan validation" `Quick test_plan_validation;
    Alcotest.test_case "effective_slots follows the plan" `Quick
      test_effective_slots;
    Alcotest.test_case "boundary policy promotion" `Quick test_boundary_policy;
    Alcotest.test_case "tdma derivation" `Quick test_tdma_derivation;
    Alcotest.test_case "constructor validation" `Quick
      test_constructor_validation;
  ]
