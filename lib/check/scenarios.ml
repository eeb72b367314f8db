module Cycles = Rthv_engine.Cycles
module Config = Rthv_core.Config
module Task = Rthv_rtos.Task
module DF = Rthv_analysis.Distance_fn
module Independence = Rthv_analysis.Independence
module Gen = Rthv_workload.Gen
module Ecu_trace = Rthv_workload.Ecu_trace

(* --- quickstart --------------------------------------------------------- *)

let quickstart_d_min = Cycles.of_us 2_000

let quickstart ?(monitored = true) () =
  let partitions =
    [
      Config.partition ~name:"control" ~slot_us:5_000 ();
      Config.partition ~name:"io" ~slot_us:5_000 ();
    ]
  in
  let interarrivals =
    Gen.exponential ~seed:1 ~mean:quickstart_d_min ~count:2_000
  in
  let shaping =
    if monitored then Config.Fixed_monitor (DF.d_min quickstart_d_min)
    else Config.No_shaping
  in
  let nic =
    Config.source ~name:"nic" ~line:0 ~subscriber:1 ~c_th_us:5 ~c_bh_us:40
      ~interarrivals ~shaping ()
  in
  Config.make ~partitions ~sources:[ nic ] ()

(* --- avionics ----------------------------------------------------------- *)

let avionics_datalink_bh_us = 60

let avionics_c_bh_eff () =
  Absint.c_bh_eff
    ~platform:Rthv_hw.Platform.arm926ejs_200mhz
    ~c_bh:(Cycles.of_us avionics_datalink_bh_us)

let avionics_d_min () =
  Independence.required_d_min ~c_bh_eff:(avionics_c_bh_eff ())
    ~max_utilisation:0.03

let avionics_ima () =
  let partitions =
    [
      Config.partition ~name:"flight_ctl" ~slot_us:4_000
        ~tasks:
          [
            Task.spec ~name:"attitude" ~period_us:12_000 ~wcet_us:800
              ~priority:0 ();
            Task.spec ~name:"actuator" ~period_us:24_000 ~wcet_us:1_200
              ~priority:1 ();
          ]
        ();
      Config.partition ~name:"nav" ~slot_us:4_000
        ~tasks:[ Task.spec ~name:"kalman" ~period_us:24_000 ~wcet_us:2_500 () ]
        ();
      Config.partition ~name:"datalink" ~slot_us:3_000 ();
      Config.partition ~name:"maint" ~slot_us:1_000 ();
    ]
  in
  let d_min = avionics_d_min () in
  let sources =
    [
      Config.source ~name:"sensor_bus" ~line:0 ~subscriber:0 ~c_th_us:4
        ~c_bh_us:30
        ~interarrivals:(Gen.constant ~period:(Cycles.of_us 6_000) ~count:2_000)
        ();
      Config.source ~name:"datalink_rx" ~line:1 ~subscriber:2 ~c_th_us:6
        ~c_bh_us:avionics_datalink_bh_us
        ~interarrivals:
          (Gen.exponential_clamped ~seed:7 ~mean:(Cycles.( * ) d_min 2) ~d_min
             ~count:3_000)
        ~shaping:(Config.Fixed_monitor (DF.d_min d_min))
        ();
    ]
  in
  Config.make ~partitions ~sources ()

(* --- automotive (Appendix A) ------------------------------------------- *)

type automotive = {
  auto_config : Config.t;
  auto_learn_events : int;
  auto_recorded : DF.t;
  auto_bound : DF.t;
}

let automotive_parts () =
  let trace = Ecu_trace.generate ~seed:42 Ecu_trace.default_profile in
  let distances = Ecu_trace.to_distances trace in
  let learn_events = Array.length distances / 10 in
  let prefix = List.filteri (fun i _ -> i < learn_events) trace in
  let recorded = DF.of_trace ~l:5 prefix in
  let bound = DF.scale_load recorded ~factor:0.25 in
  let partitions =
    [
      Config.partition ~name:"engine" ~slot_us:6_000 ();
      Config.partition ~name:"gateway" ~slot_us:6_000 ();
      Config.partition ~name:"hk" ~slot_us:2_000 ();
    ]
  in
  let can_rx =
    Config.source ~name:"can_rx" ~line:0 ~subscriber:1 ~c_th_us:5 ~c_bh_us:50
      ~interarrivals:distances
      ~shaping:(Config.Self_learning { l = 5; learn_events; bound = Some bound })
      ()
  in
  {
    auto_config = Config.make ~partitions ~sources:[ can_rx ] ();
    auto_learn_events = learn_events;
    auto_recorded = recorded;
    auto_bound = bound;
  }

let automotive_ecu () = (automotive_parts ()).auto_config

(* --- the linter's demonstration input ----------------------------------- *)

(* Structurally valid (passes Config.validate) yet wrong in every way the
   static rules can catch: a useless 40 us slot (RTHV002), an unbounded
   monitor (RTHV003), a d_min grant eating >100 % of the processor
   (RTHV004), an overloaded task set (RTHV005/RTHV006), a monitor that
   never learns (RTHV007) on a source that never fires (RTHV008), a
   workload denser than its condition (RTHV009), a bursty token bucket
   (RTHV010), duplicate partition names (RTHV011), and a bottom handler
   bigger than its subscriber's slot (RTHV012). *)
let demo_bad () =
  let partitions =
    [
      Config.partition ~name:"ctl" ~slot_us:40 ();
      Config.partition ~name:"io" ~slot_us:2_000
        ~tasks:[ Task.spec ~name:"crunch" ~period_us:10_000 ~wcet_us:8_000 () ]
        ();
      Config.partition ~name:"dup" ~slot_us:500 ();
      Config.partition ~name:"dup" ~slot_us:500 ();
    ]
  in
  let sources =
    [
      Config.source ~name:"unbounded" ~line:0 ~subscriber:1 ~c_th_us:5
        ~c_bh_us:10
        ~interarrivals:(Gen.constant ~period:(Cycles.of_us 1_000) ~count:16)
        ~shaping:(Config.Fixed_monitor (DF.unbounded ~l:1))
        ();
      Config.source ~name:"nolearn" ~line:1 ~subscriber:1 ~c_th_us:5
        ~c_bh_us:10 ~interarrivals:[||]
        ~shaping:(Config.Self_learning { l = 1; learn_events = 0; bound = None })
        ();
      Config.source ~name:"burst" ~line:2 ~subscriber:1 ~c_th_us:5 ~c_bh_us:10
        ~interarrivals:(Gen.constant ~period:(Cycles.of_us 2_000) ~count:16)
        ~shaping:
          (Config.Token_bucket { capacity = 4; refill = Cycles.of_us 1_000 })
        ();
      Config.source ~name:"hog" ~line:3 ~subscriber:0 ~c_th_us:5 ~c_bh_us:150
        ~interarrivals:(Gen.constant ~period:(Cycles.of_us 5_000) ~count:16)
        ~shaping:(Config.Fixed_monitor (DF.d_min (Cycles.of_us 200)))
        ();
      Config.source ~name:"chatty" ~line:4 ~subscriber:1 ~c_th_us:5
        ~c_bh_us:10
        ~interarrivals:(Gen.exponential ~seed:3 ~mean:(Cycles.of_us 300) ~count:64)
        ~shaping:(Config.Fixed_monitor (DF.d_min (Cycles.of_us 1_000)))
        ();
    ]
  in
  Config.make ~partitions ~sources ()

(* --- the policy-layer demonstration input ------------------------------- *)

(* Structurally valid and clean under the grant-only closed forms, yet
   wrong in the ways only the interval analysis over the full policy set
   can catch: a weighted plan whose effective slot starves a subscriber
   that its declared slot could serve (RTHV017), a per-cycle interposition
   budget whose aligned-window bound swallows the foreign slots entirely
   (RTHV013), and a partition whose task set passes the grant-only
   certificate but fails once the budget and bucket curves are added to
   the interference budget (RTHV018).  A dead per-cycle budget (RTHV015)
   and a bursty token bucket (RTHV010) ride along. *)
let demo_policy_bad () =
  let partitions =
    [
      Config.partition ~name:"sys" ~slot_us:6_000
        ~tasks:[ Task.spec ~name:"plan" ~period_us:20_000 ~wcet_us:1_000 () ]
        ();
      Config.partition ~name:"app" ~slot_us:6_000 ();
      Config.partition ~name:"hk" ~slot_us:2_000 ();
    ]
  in
  (* 10:3:1 over 14 ms: sys grows to 10 ms, app shrinks to 3 ms, hk to
     1 ms — app's declared 6 ms slot could complete the DMA bottom
     handler, its effective 3 ms slot cannot. *)
  let plan =
    Config.Weighted_plan
      { cycle = Cycles.of_us 14_000; weights = [| 10; 3; 1 |] }
  in
  let sources =
    [
      Config.source ~name:"dma" ~line:0 ~subscriber:1 ~c_th_us:5
        ~c_bh_us:4_000
        ~interarrivals:(Gen.constant ~period:(Cycles.of_us 40_000) ~count:64)
        ();
      Config.source ~name:"radar" ~line:1 ~subscriber:0 ~c_th_us:5
        ~c_bh_us:25
        ~interarrivals:(Gen.constant ~period:(Cycles.of_us 2_000) ~count:512)
        ~shaping:(Config.Budgeted { per_cycle = 40 })
        ();
      Config.source ~name:"tick" ~line:2 ~subscriber:2 ~c_th_us:5 ~c_bh_us:1
        ~interarrivals:(Gen.constant ~period:(Cycles.of_us 4_000) ~count:256)
        ~shaping:(Config.Budgeted { per_cycle = 8 })
        ();
      Config.source ~name:"uplink" ~line:3 ~subscriber:2 ~c_th_us:5
        ~c_bh_us:60
        ~interarrivals:
          (Gen.exponential ~seed:21 ~mean:(Cycles.of_us 3_000) ~count:256)
        ~shaping:
          (Config.Token_bucket { capacity = 2; refill = Cycles.of_us 600 })
        ();
    ]
  in
  Config.make ~partitions ~plan ~sources ()

(* --- the paper's conforming workload (Section 6.1, scenario 2) ---------- *)

(* The quickstart topology with interarrivals clamped from below to the
   granted d_min: every activation satisfies the monitoring condition, so
   the admitted stream is the whole stream and the per-instance eq.-(16)
   bound applies to every interposed completion ({!Headroom}). *)
let conformant () =
  let partitions =
    [
      Config.partition ~name:"control" ~slot_us:5_000 ();
      Config.partition ~name:"io" ~slot_us:5_000 ();
    ]
  in
  let interarrivals =
    Gen.exponential_clamped ~seed:2 ~mean:quickstart_d_min
      ~d_min:quickstart_d_min ~count:2_000
  in
  let nic =
    Config.source ~name:"nic" ~line:0 ~subscriber:1 ~c_th_us:5 ~c_bh_us:40
      ~interarrivals
      ~shaping:(Config.Fixed_monitor (DF.d_min quickstart_d_min))
      ()
  in
  Config.make ~partitions ~sources:[ nic ] ()

(* --- post-paper policy mix ---------------------------------------------- *)

(* Every policy-core extension in one configuration: a weighted slot plan
   (3:3:1 over the quickstart's 14 ms cycle), a composite
   monitor-AND-bucket source whose bucket is provably vacuous (eq. (16)
   still applies, RTHV014 reports info), and a per-cycle interposition
   budget source (no distance condition, so only the aligned-window
   interference cap and the baseline latency bound apply). *)
let mixed_policies_d_min = Cycles.of_us 2_000

let mixed_policies () =
  let partitions =
    [
      Config.partition ~name:"control" ~slot_us:6_000 ();
      Config.partition ~name:"io" ~slot_us:6_000 ();
      Config.partition ~name:"hk" ~slot_us:2_000 ();
    ]
  in
  let plan =
    Config.Weighted_plan
      { cycle = Cycles.of_us 14_000; weights = [| 3; 3; 1 |] }
  in
  let cam =
    Config.source ~name:"cam" ~line:0 ~subscriber:1 ~c_th_us:5 ~c_bh_us:40
      ~interarrivals:
        (Gen.exponential_clamped ~seed:11 ~mean:mixed_policies_d_min
           ~d_min:mixed_policies_d_min ~count:1_500)
      ~shaping:
        (Config.Monitor_and_bucket
           {
             fn = DF.d_min mixed_policies_d_min;
             capacity = 1;
             refill = mixed_policies_d_min;
           })
      ()
  in
  let telemetry =
    Config.source ~name:"telemetry" ~line:1 ~subscriber:0 ~c_th_us:5
      ~c_bh_us:50
      ~interarrivals:
        (Gen.exponential ~seed:12 ~mean:(Cycles.of_us 3_000) ~count:1_500)
      ~shaping:(Config.Budgeted { per_cycle = 2 })
      ()
  in
  Config.make ~partitions ~plan ~sources:[ cam; telemetry ] ()

let good =
  [
    ("quickstart", fun () -> quickstart ());
    ("conformant", conformant);
    ("avionics_ima", avionics_ima);
    ("automotive_ecu", automotive_ecu);
    ("mixed_policies", mixed_policies);
  ]

let bad = [ ("demo_bad", demo_bad); ("demo_policy_bad", demo_policy_bad) ]
let all = good @ bad
let find name = List.assoc_opt name all
