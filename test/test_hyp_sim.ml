module Config = Rthv_core.Config
module Hyp_sim = Rthv_core.Hyp_sim
module Irq_record = Rthv_core.Irq_record
module Tdma = Rthv_core.Tdma
module DF = Rthv_analysis.Distance_fn
module Independence = Rthv_analysis.Independence
module Guest = Rthv_rtos.Guest
module Task = Rthv_rtos.Task
module Platform = Rthv_hw.Platform
module Gen = Rthv_workload.Gen

let us = Testutil.us

(* Two application partitions of 6000us plus 2000us housekeeping — the
   paper's setup, subscriber = partition 1. *)
let partitions =
  [
    Config.partition ~name:"P1" ~slot_us:6000 ();
    Config.partition ~name:"P2" ~slot_us:6000 ();
    Config.partition ~name:"HK" ~slot_us:2000 ();
  ]

let config ?(partitions = partitions) ?(subscriber = 1) ?shaping ?boundary
    ?platform interarrivals =
  let shaping = Option.value shaping ~default:Config.No_shaping in
  Config.make ?platform ?boundary ~partitions
    ~sources:
      [
        Config.source ~name:"irq0" ~line:0 ~subscriber ~c_th_us:5 ~c_bh_us:50
          ~interarrivals ~shaping ();
      ]
    ()

let run ?horizon config =
  let sim = Hyp_sim.create config in
  Hyp_sim.run ?horizon sim;
  sim

let classifications records =
  List.map (fun r -> r.Irq_record.classification) records

let test_direct_in_own_slot () =
  (* Subscriber is partition 0; one IRQ at t = 1000us, inside slot 0. *)
  let sim = run (config ~subscriber:0 [| us 1000 |]) in
  match Hyp_sim.records sim with
  | [ r ] ->
      Alcotest.(check string) "direct" "direct"
        (Irq_record.classification_name r.Irq_record.classification);
      (* Latency: C_TH (top handler) + C_BH (bottom handler runs at once). *)
      Testutil.check_cycles "latency = C_TH + C_BH" (us 55)
        (Irq_record.latency r)
  | records -> Alcotest.failf "expected one record, got %d" (List.length records)

let test_delayed_waits_for_slot () =
  (* Subscriber partition 1; IRQ at t = 1000us (slot 0 active), unmonitored:
     bottom handler starts when slot 1 opens at 6000us, after the slot
     context switch (50us). *)
  let sim = run (config ~subscriber:1 [| us 1000 |]) in
  match Hyp_sim.records sim with
  | [ r ] ->
      Alcotest.(check string) "delayed" "delayed"
        (Irq_record.classification_name r.Irq_record.classification);
      Testutil.check_cycles "completion at slot start + ctx + C_BH"
        (us 6100) r.Irq_record.completion;
      Testutil.check_cycles "latency" (us 5100) (Irq_record.latency r)
  | records -> Alcotest.failf "expected one record, got %d" (List.length records)

let test_interposed_immediate () =
  (* Monitored: same foreign IRQ is handled immediately in the foreign slot.
     Latency = C_TH + C_Mon + C_sched + C_ctx + C_BH
             = 1000 + 128 + 877 + 10000 + 10000 cycles = 110.025us. *)
  let sim =
    run
      (config ~subscriber:1
         ~shaping:(Config.Fixed_monitor (DF.d_min (us 100)))
         [| us 1000 |])
  in
  match Hyp_sim.records sim with
  | [ r ] ->
      Alcotest.(check string) "interposed" "interposed"
        (Irq_record.classification_name r.Irq_record.classification);
      Testutil.check_cycles "latency breakdown" (22005) (Irq_record.latency r);
      let stats = Hyp_sim.stats sim in
      Alcotest.(check int) "two interposition switches" 2
        stats.Hyp_sim.interposition_switches;
      Alcotest.(check int) "one admission" 1 stats.Hyp_sim.admissions
  | records -> Alcotest.failf "expected one record, got %d" (List.length records)

let test_monitor_violation_delays () =
  (* Two foreign IRQs 100us apart under a 1000us d_min: the second is
     delayed. *)
  let sim =
    run
      (config ~subscriber:1
         ~shaping:(Config.Fixed_monitor (DF.d_min (us 1000)))
         [| us 1000; us 100 |])
  in
  match classifications (Hyp_sim.records sim) with
  | [ Irq_record.Interposed; Irq_record.Delayed ] -> ()
  | _ -> Alcotest.fail "expected interposed then delayed"

let test_fifo_completion_order () =
  let interarrivals = Gen.exponential ~seed:5 ~mean:(us 300) ~count:200 in
  let sim = run (config ~subscriber:1 interarrivals) in
  let records = Hyp_sim.records sim in
  Alcotest.(check int) "all completed" 200 (List.length records);
  let completions = List.map (fun r -> r.Irq_record.completion) records in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "FIFO: completion order = arrival order" true
    (sorted completions)

let test_determinism () =
  let interarrivals = Gen.exponential ~seed:11 ~mean:(us 1500) ~count:300 in
  let shaping = Config.Fixed_monitor (DF.d_min (us 1500)) in
  let run_once () =
    let sim = run (config ~subscriber:1 ~shaping interarrivals) in
    List.map
      (fun r -> (r.Irq_record.irq, r.Irq_record.completion, r.Irq_record.classification))
      (Hyp_sim.records sim)
  in
  Alcotest.(check bool) "identical runs" true (run_once () = run_once ())

let test_unmonitored_never_interposes () =
  let interarrivals = Gen.exponential ~seed:3 ~mean:(us 2000) ~count:300 in
  let sim = run (config ~subscriber:1 interarrivals) in
  let stats = Hyp_sim.stats sim in
  Alcotest.(check int) "no interpositions" 0 stats.Hyp_sim.interposed;
  Alcotest.(check int) "no monitor checks" 0 stats.Hyp_sim.monitor_checks;
  Alcotest.(check int) "no interposition switches" 0
    stats.Hyp_sim.interposition_switches

let test_conforming_never_delays () =
  let d_min = us 2000 in
  let interarrivals =
    Gen.exponential_clamped ~seed:7 ~mean:d_min ~d_min ~count:500
  in
  let sim =
    run (config ~subscriber:1 ~shaping:(Config.Fixed_monitor (DF.d_min d_min))
           interarrivals)
  in
  let stats = Hyp_sim.stats sim in
  Alcotest.(check int) "nothing delayed" 0 stats.Hyp_sim.delayed;
  Alcotest.(check int) "everything completed" 500 stats.Hyp_sim.completed_irqs

let test_strict_tdma_cuts_bottom_handlers () =
  (* An IRQ arriving 20us before its own slot's end: with the default
     deferral the handler finishes with a bounded overrun; under strict TDMA
     it is cut and resumes one cycle later. *)
  let arrival = [| us 5975 |] in
  (* subscriber 0, slot 0 ends at 6000us *)
  let lenient = run (config ~subscriber:0 arrival) in
  let strict =
    run
      (config ~subscriber:0 ~boundary:Rthv_core.Boundary_policy.Strict_cut
         arrival)
  in
  let latency sim =
    match Hyp_sim.records sim with
    | [ r ] -> Irq_record.latency r
    | _ -> Alcotest.fail "one record expected"
  in
  Alcotest.(check bool) "deferral keeps latency bounded" true
    (latency lenient < us 200);
  Alcotest.(check bool) "strict TDMA pays the cycle" true
    (latency strict > us 8000);
  Alcotest.(check bool) "deferral counted" true
    ((Hyp_sim.stats lenient).Hyp_sim.bh_boundary_deferrals >= 1)

let test_interference_within_bound () =
  (* Equation (14) check on measured stolen time per slot. *)
  let d_min = us 1000 in
  let interarrivals =
    Gen.exponential_clamped ~seed:13 ~mean:d_min ~d_min ~count:1000
  in
  let sim =
    run
      (config ~subscriber:1 ~shaping:(Config.Fixed_monitor (DF.d_min d_min))
         interarrivals)
  in
  let stats = Hyp_sim.stats sim in
  let c_bh_eff = us 50 + 877 + (2 * us 50) in
  Array.iteri
    (fun i slot_us ->
      let bound =
        Independence.max_slot_loss ~monitor:(DF.d_min d_min) ~c_bh_eff
          ~slot:(us slot_us)
      in
      if stats.Hyp_sim.stolen_slot_max.(i) > bound then
        Alcotest.failf "partition %d: stolen %d exceeds bound %d" i
          stats.Hyp_sim.stolen_slot_max.(i) bound)
    [| 6000; 6000; 2000 |]

let test_time_conservation_ideal_platform () =
  (* On the ideal platform (free hypervisor operations) every simulated cycle
     is either guest time or top-handler time. *)
  let interarrivals = Gen.exponential ~seed:17 ~mean:(us 700) ~count:100 in
  let sim = run (config ~platform:Platform.ideal ~subscriber:1 interarrivals) in
  let stats = Hyp_sim.stats sim in
  let guest_time = ref 0 in
  for i = 0 to 2 do
    let g = Hyp_sim.guest sim i in
    guest_time := !guest_time + Guest.cpu_time g + Guest.idle_time g
  done;
  let top_handler_time = 100 * us 5 in
  Testutil.check_cycles "cycles are conserved" stats.Hyp_sim.sim_time
    (!guest_time + top_handler_time)

let test_multi_source_systems () =
  let mk_source ~name ~line ~subscriber ~mean ~seed ~shaping =
    Config.source ~name ~line ~subscriber ~c_th_us:5 ~c_bh_us:30
      ~interarrivals:(Gen.exponential ~seed ~mean ~count:150)
      ~shaping ()
  in
  let cfg =
    Config.make ~partitions
      ~sources:
        [
          mk_source ~name:"can" ~line:0 ~subscriber:0 ~mean:(us 900) ~seed:1
            ~shaping:(Config.Fixed_monitor (DF.d_min (us 900)));
          mk_source ~name:"eth" ~line:1 ~subscriber:1 ~mean:(us 1100) ~seed:2
            ~shaping:Config.No_shaping;
        ]
      ()
  in
  let sim = run cfg in
  let records = Hyp_sim.records sim in
  Alcotest.(check int) "all IRQs of both sources complete" 300
    (List.length records);
  let of_source name =
    List.filter (fun r -> r.Irq_record.source = name) records
  in
  Alcotest.(check int) "can count" 150 (List.length (of_source "can"));
  Alcotest.(check int) "eth count" 150 (List.length (of_source "eth"));
  (* The unmonitored source never interposes. *)
  Alcotest.(check bool) "eth only direct/delayed" true
    (List.for_all
       (fun r -> r.Irq_record.classification <> Irq_record.Interposed)
       (of_source "eth"))

let test_guest_tasks_survive_interposition () =
  (* Partition 0 runs a periodic task while partition 1's monitored source
     interposes aggressively.  The task keeps completing with bounded
     response times (sufficient temporal independence). *)
  let task = Task.spec ~name:"ctl" ~period_us:28_000 ~wcet_us:500 () in
  let partitions =
    [
      Config.partition ~name:"P1" ~slot_us:6000 ~tasks:[ task ] ();
      Config.partition ~name:"P2" ~slot_us:6000 ();
      Config.partition ~name:"HK" ~slot_us:2000 ();
    ]
  in
  let d_min = us 1000 in
  let interarrivals =
    Gen.exponential_clamped ~seed:19 ~mean:d_min ~d_min ~count:2000
  in
  let sim =
    run
      (config ~partitions ~subscriber:1
         ~shaping:(Config.Fixed_monitor (DF.d_min d_min))
         interarrivals)
  in
  let g = Hyp_sim.guest sim 0 in
  let completions = Guest.take_completions g in
  Alcotest.(check bool) "task ran repeatedly" true
    (List.length completions > 50);
  List.iter
    (fun c ->
      let r = Task.response_time c in
      if r > us 28_000 then
        Alcotest.failf "task response %a exceeded its period"
          Rthv_engine.Cycles.pp r)
    completions;
  Alcotest.(check int) "no backlog" 0 (Guest.backlog g)

let test_records_are_complete_and_ordered () =
  let interarrivals = Gen.uniform ~seed:23 ~lo:(us 100) ~hi:(us 3000) ~count:250 in
  let sim = run (config ~subscriber:1 interarrivals) in
  let records = Hyp_sim.records sim in
  let ids = List.map (fun r -> r.Irq_record.irq) records in
  Alcotest.(check (list int)) "ids are 0..n-1 in order"
    (List.init 250 (fun i -> i))
    ids;
  List.iter
    (fun r ->
      if r.Irq_record.top_start < r.Irq_record.arrival then
        Alcotest.fail "top handler before arrival";
      if r.Irq_record.top_end < r.Irq_record.top_start then
        Alcotest.fail "top handler ends before it starts";
      if r.Irq_record.completion < r.Irq_record.top_end then
        Alcotest.fail "completion before top handler")
    records

let test_monitor_accessor () =
  let sim =
    Hyp_sim.create
      (config ~subscriber:1 ~shaping:(Config.Fixed_monitor (DF.d_min 100))
         [| 100 |])
  in
  Alcotest.(check bool) "monitored source found" true
    (Option.is_some (Hyp_sim.monitor sim ~source:"irq0"));
  Alcotest.(check bool) "unknown source" true
    (Option.is_none (Hyp_sim.monitor sim ~source:"nope"))

let test_create_validates () =
  let bad =
    Config.make ~partitions
      ~sources:
        [
          Config.source ~name:"s" ~line:0 ~subscriber:9 ~c_th_us:5 ~c_bh_us:5
            ~interarrivals:[||] ();
        ]
      ()
  in
  Alcotest.check_raises "invalid config rejected"
    (Invalid_argument "Hyp_sim.create: source s: bad subscriber") (fun () ->
      ignore (Hyp_sim.create bad : Hyp_sim.t))

let test_absolute_arrivals_coalesce () =
  (* Trace replay: two raises 10us apart while the top handler of a third
     busy line blocks hypervisor work long enough that the second raise hits
     a still-pending flag and coalesces (non-counting IRQ flags). *)
  let cfg =
    Config.make ~partitions
      ~sources:
        [
          (* A slow top handler occupying the hypervisor at t=1000us. *)
          Config.source ~name:"slow" ~line:1 ~subscriber:0 ~c_th_us:100
            ~c_bh_us:10 ~interarrivals:[| us 1000 |] ();
          (* Two raises at 1005us and 1010us: the first is delivered but its
             top handler queues behind "slow"; the second raise coalesces. *)
          Config.source ~name:"fast" ~line:0 ~subscriber:0 ~c_th_us:5
            ~c_bh_us:10
            ~interarrivals:[| us 1005; us 5 |]
            ~arrival_mode:Config.Absolute ();
        ]
      ()
  in
  let sim = run cfg in
  let stats = Hyp_sim.stats sim in
  Alcotest.(check int) "one raise coalesced" 1 stats.Hyp_sim.coalesced_irqs;
  Alcotest.(check int) "only two IRQs completed" 2 stats.Hyp_sim.completed_irqs

let test_absolute_arrivals_complete () =
  let distances = Gen.uniform ~seed:31 ~lo:(us 500) ~hi:(us 4_000) ~count:100 in
  let cfg =
    Config.make ~partitions
      ~sources:
        [
          Config.source ~name:"trace" ~line:0 ~subscriber:1 ~c_th_us:5
            ~c_bh_us:50 ~interarrivals:distances
            ~arrival_mode:Config.Absolute ();
        ]
      ()
  in
  let sim = run cfg in
  Alcotest.(check int) "all trace events complete" 100
    (Hyp_sim.stats sim).Hyp_sim.completed_irqs

let test_two_monitored_sources_share_interposition () =
  (* Both sources monitored; simultaneous admission is impossible, so each
     partition still sees bounded interference from the union. *)
  let d_min = us 1_500 in
  let mk name line subscriber seed =
    Config.source ~name ~line ~subscriber ~c_th_us:5 ~c_bh_us:40
      ~interarrivals:
        (Gen.exponential_clamped ~seed ~mean:d_min ~d_min ~count:400)
      ~shaping:(Config.Fixed_monitor (DF.d_min d_min))
      ()
  in
  let cfg =
    Config.make ~partitions
      ~sources:[ mk "a" 0 0 101; mk "b" 1 1 202 ]
      ()
  in
  let sim = run cfg in
  let stats = Hyp_sim.stats sim in
  Alcotest.(check int) "all complete" 800 stats.Hyp_sim.completed_irqs;
  Alcotest.(check bool) "both sources interpose" true
    (stats.Hyp_sim.interposed > 100);
  (* Union interference bound: sum of the two curves plus one carry-in. *)
  let c_bh_eff = us 40 + 877 + (2 * us 50) in
  let curve =
    Independence.sum
      [
        Independence.d_min_bound ~d_min ~c_bh_eff;
        Independence.d_min_bound ~d_min ~c_bh_eff;
      ]
  in
  Array.iteri
    (fun i slot_us ->
      let bound = curve (us slot_us) + c_bh_eff in
      if stats.Hyp_sim.stolen_slot_max.(i) > bound then
        Alcotest.failf "partition %d interference exceeds the union bound" i)
    [| 6000; 6000; 2000 |]

let test_single_partition_all_direct () =
  let cfg =
    Config.make
      ~partitions:[ Config.partition ~name:"only" ~slot_us:10_000 () ]
      ~sources:
        [
          Config.source ~name:"irq" ~line:0 ~subscriber:0 ~c_th_us:5
            ~c_bh_us:20
            ~interarrivals:(Gen.exponential ~seed:3 ~mean:(us 400) ~count:200)
            ();
        ]
      ()
  in
  let sim = run cfg in
  let stats = Hyp_sim.stats sim in
  Alcotest.(check int) "everything direct" 200 stats.Hyp_sim.direct;
  Alcotest.(check int) "nothing delayed" 0 stats.Hyp_sim.delayed

let test_zero_distance_arrival () =
  (* A zero interarrival entry: the next IRQ fires the instant the previous
     top handler completes; both must still be processed in order. *)
  let cfg =
    Config.make ~partitions
      ~sources:
        [
          Config.source ~name:"irq" ~line:0 ~subscriber:0 ~c_th_us:5
            ~c_bh_us:10
            ~interarrivals:[| us 100; 0; 0 |]
            ();
        ]
      ()
  in
  let sim = run cfg in
  let records = Hyp_sim.records sim in
  Alcotest.(check int) "all three complete" 3 (List.length records);
  let ids = List.map (fun r -> r.Irq_record.irq) records in
  Alcotest.(check (list int)) "in order" [ 0; 1; 2 ] ids

let test_housekeeping_subscriber () =
  (* The housekeeping partition can subscribe IRQs too; its short slot makes
     delayed latencies longer (up to cycle - 2000us = 12000us). *)
  let sim =
    run (config ~subscriber:2 [| us 2_500 |])
    (* arrival inside P1's slot *)
  in
  match Hyp_sim.records sim with
  | [ r ] ->
      Alcotest.(check string) "delayed" "delayed"
        (Irq_record.classification_name r.Irq_record.classification);
      (* HK slot opens at 12000us; + ctx 50us + C_BH 50us. *)
      Testutil.check_cycles "completion in the HK slot" (us 12_100)
        r.Irq_record.completion
  | records -> Alcotest.failf "expected one record, got %d" (List.length records)

let test_horizon_stops () =
  (* A far-future arrival with a tiny horizon: the run must stop early. *)
  let sim = Hyp_sim.create (config ~subscriber:0 [| us 1_000_000 |]) in
  Hyp_sim.run ~horizon:(us 10_000) sim;
  Alcotest.(check int) "nothing completed before the horizon" 0
    (Hyp_sim.stats sim).Hyp_sim.completed_irqs

let suite =
  [
    Alcotest.test_case "direct handling" `Quick test_direct_in_own_slot;
    Alcotest.test_case "delayed handling" `Quick test_delayed_waits_for_slot;
    Alcotest.test_case "interposed handling" `Quick test_interposed_immediate;
    Alcotest.test_case "monitor violations delay" `Quick
      test_monitor_violation_delays;
    Alcotest.test_case "FIFO completion order" `Quick test_fifo_completion_order;
    Alcotest.test_case "determinism under fixed seed" `Quick test_determinism;
    Alcotest.test_case "unmonitored never interposes" `Quick
      test_unmonitored_never_interposes;
    Alcotest.test_case "conforming arrivals never delayed" `Quick
      test_conforming_never_delays;
    Alcotest.test_case "strict vs deferred slot boundaries" `Quick
      test_strict_tdma_cuts_bottom_handlers;
    Alcotest.test_case "equation (14) holds for measured interference" `Quick
      test_interference_within_bound;
    Alcotest.test_case "cycle conservation (ideal platform)" `Quick
      test_time_conservation_ideal_platform;
    Alcotest.test_case "multiple sources" `Quick test_multi_source_systems;
    Alcotest.test_case "guest tasks under interposition" `Quick
      test_guest_tasks_survive_interposition;
    Alcotest.test_case "record completeness" `Quick
      test_records_are_complete_and_ordered;
    Alcotest.test_case "monitor accessor" `Quick test_monitor_accessor;
    Alcotest.test_case "config validation on create" `Quick test_create_validates;
    Alcotest.test_case "absolute arrivals coalesce" `Quick
      test_absolute_arrivals_coalesce;
    Alcotest.test_case "absolute arrivals complete" `Quick
      test_absolute_arrivals_complete;
    Alcotest.test_case "two monitored sources" `Quick
      test_two_monitored_sources_share_interposition;
    Alcotest.test_case "single-partition schedule" `Quick
      test_single_partition_all_direct;
    Alcotest.test_case "zero-distance arrivals" `Quick test_zero_distance_arrival;
    Alcotest.test_case "housekeeping subscriber" `Quick
      test_housekeeping_subscriber;
    Alcotest.test_case "horizon stop" `Quick test_horizon_stops;
  ]

let test_no_sources_quiescent () =
  let cfg = Config.make ~partitions ~sources:[] () in
  let sim = run cfg in
  let stats = Hyp_sim.stats sim in
  Alcotest.(check int) "nothing completed" 0 stats.Hyp_sim.completed_irqs;
  Testutil.check_cycles "clock never advanced" 0 stats.Hyp_sim.sim_time

let test_run_idempotent () =
  let sim = run (config ~subscriber:0 [| us 1000 |]) in
  let before = (Hyp_sim.stats sim).Hyp_sim.sim_time in
  Hyp_sim.run sim;
  Alcotest.(check int) "second run is a no-op"
    before (Hyp_sim.stats sim).Hyp_sim.sim_time;
  Alcotest.(check int) "records stable" 1 (List.length (Hyp_sim.records sim))

let test_empty_interarrivals_source () =
  let sim = run (config ~subscriber:0 [||]) in
  Alcotest.(check int) "no IRQs generated" 0
    (Hyp_sim.stats sim).Hyp_sim.completed_irqs

(* --- growable tables at their initial capacity N and at N+1 ------------ *)

module Sim_state = Rthv_core.Sim_state
module Hyp_trace = Rthv_core.Hyp_trace

(* [n] exponential arrivals (mean 1544us) at one d_min-monitored source of
   partition 1. *)
let streaming_config n =
  let interarrivals = Gen.exponential ~seed:7 ~mean:(us 1544) ~count:n in
  config ~subscriber:1
    ~shaping:(Config.Fixed_monitor (DF.d_min (us 1544)))
    interarrivals

let test_streaming_pending_table_bounded () =
  (* A streaming run keeps per-IRQ state for the IRQs in flight only: the
     in-flight table must not grow with the IRQ count. *)
  let n = 100_000 in
  let sim = Hyp_sim.create ~retain:false (streaming_config n) in
  Hyp_sim.run sim;
  Alcotest.(check int) "all complete" n
    (Hyp_sim.stats sim).Hyp_sim.completed_irqs;
  let slots = Array.length sim.Sim_state.pf_irq in
  if slots > 1024 then
    Alcotest.failf "in-flight table grew to %d slots over %d IRQs" slots n

(* The per-IRQ path of a streaming run allocates nothing: in-flight state
   lives in int columns, queue items are recycled and the slot lookup
   builds no tuple.  Counted with [Gc.minor_words], which includes the
   live minor heap; OCaml 5.1's [Gc.quick_stat] leaves it out.  The
   suite-wide audit hook attaches a trace whose events allocate by design,
   so it is suspended for this run. *)
let streaming_run_words ?trace n =
  let was_installed = Rthv_check.Audit_hook.installed () in
  Rthv_check.Audit_hook.uninstall ();
  let sim, words =
    Fun.protect
      ~finally:(fun () ->
        if was_installed then Rthv_check.Audit_hook.install ())
      (fun () ->
        let sim = Hyp_sim.create ?trace ~retain:false (streaming_config n) in
        let before = Gc.minor_words () in
        Hyp_sim.run sim;
        let after = Gc.minor_words () in
        (sim, after -. before))
  in
  Alcotest.(check int) "all complete" n
    (Hyp_sim.stats sim).Hyp_sim.completed_irqs;
  words /. float_of_int n

let test_streaming_run_allocation () =
  let per_irq = streaming_run_words 100_000 in
  if per_irq > 2.0 then
    Alcotest.failf "streaming run allocated %.2f minor words per IRQ" per_irq

(* A traced streaming run emits rows, not event values: with a 256-entry
   ring and a row hook that counts them, it still allocates nothing per
   IRQ. *)
let test_traced_streaming_allocation () =
  let n = 100_000 in
  let trace = Hyp_trace.create ~capacity:256 () in
  let rows = ref 0 in
  Hyp_trace.set_row_spill trace (fun ~time:_ ~kind:_ ~a:_ ~b:_ ~c:_ ~d:_ ->
      incr rows);
  let per_irq = streaming_run_words ~trace n in
  Alcotest.(check bool) "rows spilled for every IRQ" true (!rows >= 3 * n);
  if per_irq > 2.0 then
    Alcotest.failf "traced streaming run allocated %.2f minor words per IRQ"
      per_irq

(* The record store holds [n] completed IRQs: 64 fill its initial rows and
   the 65th doubles them.  Returns the store's row count. *)
let record_store_case n =
  let sim = run (config ~subscriber:0 (Array.make n (us 1000))) in
  Alcotest.(check (list int)) "every record once, in IRQ-id order"
    (List.init n Fun.id)
    (List.map (fun r -> r.Irq_record.irq) (Hyp_sim.records sim));
  Array.length sim.Sim_state.records

let test_record_store_at_capacity () =
  Alcotest.(check int) "64 records fill the initial store" 64
    (record_store_case 64)

let test_record_store_past_capacity () =
  Alcotest.(check int) "the 65th record doubles the store" 128
    (record_store_case 65)

(* [n] sources on distinct lines all raise at 7000us.  The slot switch at
   6000us has already passed through the hypervisor ring, so its head is
   off zero and the 17th top handler grows a wrapped ring. *)
let hyp_ring_burst n =
  let sources =
    List.init n (fun k ->
        Config.source ~name:(Printf.sprintf "s%02d" k) ~line:k ~subscriber:0
          ~c_th_us:5 ~c_bh_us:10 ~interarrivals:[| us 7_000 |]
          ~arrival_mode:Config.Absolute ())
  in
  let sim = run (Config.make ~partitions ~sources ()) in
  let records = Hyp_sim.records sim in
  Alcotest.(check int) "every IRQ completes" n
    (Hyp_sim.stats sim).Hyp_sim.completed_irqs;
  Alcotest.(check (list int)) "each IRQ once" (List.init n Fun.id)
    (List.map (fun r -> r.Irq_record.irq) records);
  Alcotest.(check (list string)) "delivered in source order"
    (List.init n (Printf.sprintf "s%02d"))
    (List.map (fun r -> r.Irq_record.source) records);
  Testutil.check_cycles "first top handler starts at the raise" (us 7_000)
    (List.hd records).Irq_record.top_start;
  ignore
    (List.fold_left
       (fun prev r ->
         Testutil.check_cycles
           (Printf.sprintf "IRQ %d starts when IRQ %d ends" r.Irq_record.irq
              prev.Irq_record.irq)
           prev.Irq_record.top_end r.Irq_record.top_start;
         r)
       (List.hd records) (List.tl records)
      : Irq_record.t);
  Array.length sim.Sim_state.hq_kind

let test_hyp_ring_at_capacity () =
  Alcotest.(check int) "16 items fit the initial ring" 16 (hyp_ring_burst 16)

let test_hyp_ring_past_capacity () =
  Alcotest.(check int) "the 17th item doubles the ring" 32 (hyp_ring_burst 17)

(* [n] IRQs in flight at once.  "warm" IRQs 0-69 each complete before the
   next arrives, so "long" gets id 70 (slot 6 of the 64-slot table) and
   stays pending until the housekeeping slot at 12000us; [n - 1] "burst"
   IRQs delayed to P2's slot join it.  A last "burst" IRQ at 10000us gets
   id [70 + n].  For [n] = 64 that id collides with IRQ 70 modulo 64; for
   [n] = 65 the burst's own IRQ 134 collides first.  Either way the table
   grows while IRQ 70 sits at a slot it must leave. *)
let pending_table_config n =
  let warm_arrivals = List.init 70 (fun k -> us (100 + (50 * k))) in
  let burst_arrivals =
    List.init (n - 1) (fun k -> us (3_700 + (20 * k))) @ [ us 10_000 ]
  in
  let absolute name ~line ~subscriber ~c_bh_us arrivals =
    let distances =
      snd (List.fold_left_map (fun prev t -> (t, t - prev)) 0 arrivals)
    in
    Config.source ~name ~line ~subscriber ~c_th_us:5 ~c_bh_us
      ~interarrivals:(Array.of_list distances) ~arrival_mode:Config.Absolute
      ()
  in
  ( Config.make ~partitions
      ~sources:
        [
          absolute "warm" ~line:0 ~subscriber:0 ~c_bh_us:10 warm_arrivals;
          absolute "long" ~line:1 ~subscriber:2 ~c_bh_us:50 [ us 3_600 ];
          absolute "burst" ~line:2 ~subscriber:1 ~c_bh_us:50 burst_arrivals;
        ]
      (),
    warm_arrivals,
    burst_arrivals )

let pending_table_case n =
  let cfg, warm_arrivals, burst_arrivals = pending_table_config n in
  let partial = Hyp_sim.create cfg in
  Hyp_sim.run ~horizon:(us 5_000) partial;
  Alcotest.(check int) "IRQs in flight at 5000us" n partial.Sim_state.live_irqs;
  let slots_in_flight = Array.length partial.Sim_state.pf_irq in
  let sim = run cfg in
  let records = Hyp_sim.records sim in
  Alcotest.(check (list int)) "each IRQ completes once"
    (List.init (71 + n) Fun.id)
    (List.map (fun r -> r.Irq_record.irq) records);
  Alcotest.(check (list (pair string int)))
    "each IRQ keeps its own source and arrival"
    (List.map (fun t -> ("warm", t)) warm_arrivals
    @ [ ("long", us 3_600) ]
    @ List.map (fun t -> ("burst", t)) burst_arrivals)
    (List.map (fun r -> (r.Irq_record.source, r.Irq_record.arrival)) records);
  Alcotest.(check bool) "completion frees every slot" true
    (Array.for_all (fun irq -> irq < 0) sim.Sim_state.pf_irq);
  slots_in_flight

let test_pending_table_at_capacity () =
  Alcotest.(check int) "64 in flight fill the initial table" 64
    (pending_table_case 64)

let test_pending_table_past_capacity () =
  Alcotest.(check int) "the 65th in-flight IRQ doubles the table" 128
    (pending_table_case 65)

(* Cut at 5000us, the 70 "warm" IRQs have completed and IRQs 70-133 are
   in flight: only the completed ones are records, and reading them back
   does not consume them. *)
let test_records_after_horizon_cut () =
  let cfg, _, _ = pending_table_config 64 in
  let sim = Hyp_sim.create cfg in
  Hyp_sim.run ~horizon:(us 5_000) sim;
  Alcotest.(check int) "IRQs in flight at the cut" 64
    sim.Sim_state.live_irqs;
  let records = Hyp_sim.records sim in
  Alcotest.(check (list int)) "completed IRQs only" (List.init 70 Fun.id)
    (List.map (fun r -> r.Irq_record.irq) records);
  Alcotest.(check bool) "a second read returns an equal list" true
    (records = Hyp_sim.records sim)

let suite =
  suite
  @ [
      Alcotest.test_case "no sources" `Quick test_no_sources_quiescent;
      Alcotest.test_case "run is idempotent" `Quick test_run_idempotent;
      Alcotest.test_case "empty interarrival array" `Quick
        test_empty_interarrivals_source;
      Alcotest.test_case "streaming keeps the in-flight table small" `Quick
        test_streaming_pending_table_bounded;
      Alcotest.test_case "hyp ring at capacity (16)" `Quick
        test_hyp_ring_at_capacity;
      Alcotest.test_case "hyp ring past capacity (17)" `Quick
        test_hyp_ring_past_capacity;
      Alcotest.test_case "in-flight table at capacity (64)" `Quick
        test_pending_table_at_capacity;
      Alcotest.test_case "in-flight table past capacity (65)" `Quick
        test_pending_table_past_capacity;
      Alcotest.test_case "streaming run allocates <= 2 words/IRQ" `Quick
        test_streaming_run_allocation;
      Alcotest.test_case "traced streaming run allocates <= 2 words/IRQ"
        `Quick test_traced_streaming_allocation;
      Alcotest.test_case "record store at capacity (64)" `Quick
        test_record_store_at_capacity;
      Alcotest.test_case "record store past capacity (65)" `Quick
        test_record_store_past_capacity;
      Alcotest.test_case "records after a horizon cut" `Quick
        test_records_after_horizon_cut;
    ]
