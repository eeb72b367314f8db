module Hyp_trace = Rthv_core.Hyp_trace
module Config = Rthv_core.Config
module Hyp_sim = Rthv_core.Hyp_sim
module DF = Rthv_analysis.Distance_fn

let us = Testutil.us

let test_ring_buffer_basics () =
  let t = Hyp_trace.create ~capacity:3 () in
  Alcotest.(check int) "empty" 0 (Hyp_trace.length t);
  Hyp_trace.record t ~time:1 (Hyp_trace.Top_handler_run { irq = 0; line = 0 });
  Hyp_trace.record t ~time:2 (Hyp_trace.Top_handler_run { irq = 1; line = 0 });
  Alcotest.(check int) "two entries" 2 (Hyp_trace.length t);
  Alcotest.(check int) "nothing dropped" 0 (Hyp_trace.dropped t)

let test_ring_buffer_wraps () =
  let t = Hyp_trace.create ~capacity:2 () in
  for i = 0 to 4 do
    Hyp_trace.record t ~time:i (Hyp_trace.Top_handler_run { irq = i; line = 0 })
  done;
  Alcotest.(check int) "capacity retained" 2 (Hyp_trace.length t);
  Alcotest.(check int) "drops counted" 3 (Hyp_trace.dropped t);
  Alcotest.(check int) "total counted" 5 (Hyp_trace.recorded t);
  match Hyp_trace.to_list t with
  | [ a; b ] ->
      Testutil.check_cycles "oldest retained" 3 a.Hyp_trace.time;
      Testutil.check_cycles "newest retained" 4 b.Hyp_trace.time
  | entries -> Alcotest.failf "expected 2 entries, got %d" (List.length entries)

let test_capacity_validated () =
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Hyp_trace.create: capacity must be positive") (fun () ->
      ignore (Hyp_trace.create ~capacity:0 () : Hyp_trace.t))

(* A ring sized for the longest audited run allocates for the entries it
   records, not for its capacity: 1,000 records into a 2^20-entry ring cost
   two small blocks and their doublings, where a full-size ring would cost
   two 2^20-word arrays. *)
let test_capacity_is_not_allocated () =
  let ev = Hyp_trace.Irq_coalesced { line = 0 } in
  let words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = words () in
  let t = Hyp_trace.create ~capacity:(1 lsl 20) () in
  for i = 0 to 999 do
    Hyp_trace.record t ~time:i ev
  done;
  let allocated = words () -. before in
  Alcotest.(check int) "all retained" 1_000 (Hyp_trace.length t);
  if allocated >= 16_000. then
    Alcotest.failf "1000 records allocated %.0f words (bound 16000)" allocated

let run_traced ~shaping =
  let trace = Hyp_trace.create () in
  let config =
    Config.make
      ~partitions:
        [
          Config.partition ~name:"P1" ~slot_us:6_000 ();
          Config.partition ~name:"P2" ~slot_us:6_000 ();
        ]
      ~sources:
        [
          Config.source ~name:"irq" ~line:0 ~subscriber:1 ~c_th_us:5
            ~c_bh_us:50
            ~interarrivals:[| us 1_000; us 2_000; us 2_000 |]
            ~shaping ();
        ]
      ()
  in
  let sim = Hyp_sim.create ~trace config in
  Hyp_sim.run sim;
  (trace, Hyp_sim.stats sim)

let test_sim_records_events () =
  let trace, stats =
    run_traced ~shaping:(Config.Fixed_monitor (DF.d_min (us 100)))
  in
  let count predicate =
    List.length
      (List.filter
         (fun e -> predicate e.Hyp_trace.event)
         (Hyp_trace.to_list trace))
  in
  Alcotest.(check int) "one top handler per IRQ" 3
    (count (function Hyp_trace.Top_handler_run _ -> true | _ -> false));
  Alcotest.(check int) "one completion per IRQ" 3
    (count (function Hyp_trace.Bottom_handler_done _ -> true | _ -> false));
  let starts =
    count (function Hyp_trace.Interposition_start _ -> true | _ -> false)
  in
  let ends =
    count (function Hyp_trace.Interposition_end _ -> true | _ -> false)
  in
  Alcotest.(check int) "starts recorded" stats.Hyp_sim.interpositions_started
    starts;
  Alcotest.(check int) "every interposition ends" starts ends;
  Alcotest.(check int) "slot switches recorded" stats.Hyp_sim.slot_switches
    (count (function Hyp_trace.Slot_switch _ -> true | _ -> false))

let test_trace_times_monotone () =
  let trace, _ = run_traced ~shaping:Config.No_shaping in
  let entries = Hyp_trace.to_list trace in
  Alcotest.(check bool) "non-empty" true (List.length entries > 0);
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        a.Hyp_trace.time <= b.Hyp_trace.time && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "timestamps monotone" true (monotone entries)

let test_monitor_decisions_traced () =
  (* Second IRQ violates a huge d_min -> one admitted, one denied visible. *)
  let trace, _ =
    run_traced ~shaping:(Config.Fixed_monitor (DF.d_min (us 10_000)))
  in
  let decisions =
    List.filter
      (fun e ->
        match e.Hyp_trace.event with
        | Hyp_trace.Monitor_decision _ -> true
        | _ -> false)
      (Hyp_trace.to_list trace)
  in
  let admitted =
    List.filter
      (fun e ->
        match e.Hyp_trace.event with
        | Hyp_trace.Monitor_decision { verdict = `Admitted; _ } -> true
        | _ -> false)
      decisions
  in
  Alcotest.(check bool) "some decisions" true (List.length decisions > 0);
  Alcotest.(check bool) "denials present under a huge d_min" true
    (List.length admitted < List.length decisions)

(* Minimal substring check without extra dependencies. *)
let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_pp_renders () =
  let trace, _ = run_traced ~shaping:(Config.Fixed_monitor (DF.d_min (us 100))) in
  let out = Format.asprintf "%a" Hyp_trace.pp trace in
  Alcotest.(check bool) "render mentions top handlers" true
    (contains out "top handler");
  Alcotest.(check bool) "render mentions interpositions" true
    (contains out "interposition")

let suite =
  [
    Alcotest.test_case "ring buffer basics" `Quick test_ring_buffer_basics;
    Alcotest.test_case "ring buffer wraps" `Quick test_ring_buffer_wraps;
    Alcotest.test_case "capacity validated" `Quick test_capacity_validated;
    Alcotest.test_case "capacity is a bound, not an allocation" `Quick
      test_capacity_is_not_allocated;
    Alcotest.test_case "simulation records events" `Quick test_sim_records_events;
    Alcotest.test_case "timestamps monotone" `Quick test_trace_times_monotone;
    Alcotest.test_case "monitor decisions traced" `Quick
      test_monitor_decisions_traced;
    Alcotest.test_case "pretty printing" `Quick test_pp_renders;
  ]
