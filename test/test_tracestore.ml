(* Binary trace store: lossless round-trips (explicit all-kinds list plus a
   qcheck property over random event streams), block-index pushdown, the
   ring spill hook streaming an over-capacity run, and corrupt input. *)

module Cycles = Rthv_engine.Cycles
module Hyp_trace = Rthv_core.Hyp_trace
module Store = Rthv_core.Trace_store
module Tracestore = Rthv_obs.Tracestore
module Config = Rthv_core.Config
module Hyp_sim = Rthv_core.Hyp_sim
module DF = Rthv_analysis.Distance_fn

let us = Testutil.us

let entry time event = { Hyp_trace.time; event }

(* One of every kind, every enum variant, argument values spread over the
   partition/line/irq ranges the codec packs. *)
let all_kinds_entries =
  [
    entry 0 (Hyp_trace.Slot_switch { from_partition = 0; to_partition = 2 });
    entry 10 (Hyp_trace.Irq_raised { irq = 0; line = 3 });
    entry 20 (Hyp_trace.Top_handler_run { irq = 0; line = 3 });
    entry 30
      (Hyp_trace.Monitor_decision
         { irq = 0; line = 3; arrival = 10; verdict = `Admitted });
    entry 40 (Hyp_trace.Interposition_start { irq = 0; target = 2 });
    entry 50 (Hyp_trace.Bottom_handler_start { irq = 0; partition = 2 });
    entry 60 (Hyp_trace.Bottom_handler_done { irq = 0; partition = 2 });
    entry 70
      (Hyp_trace.Interposition_end { target = 2; reason = `Queue_empty });
    entry 80 (Hyp_trace.Boundary_deferred { owner = 1; until = 120 });
    entry 90 (Hyp_trace.Interposition_crossed_boundary { target = 2 });
    entry 95 (Hyp_trace.Irq_coalesced { line = 3 });
    entry 100
      (Hyp_trace.Monitor_decision
         { irq = 1; line = 3; arrival = 95; verdict = `Denied });
    entry 110
      (Hyp_trace.Monitor_decision
         { irq = 2; line = 3; arrival = 100; verdict = `Fallback_direct });
    entry 120
      (Hyp_trace.Interposition_end { target = 2; reason = `Budget_exhausted });
  ]

let check_roundtrip ?block_events entries =
  Testutil.with_temp (fun path ->
      let n = Store.write_entries ?block_events path entries in
      Alcotest.(check int) "events written" (List.length entries) n;
      match Store.read_entries path with
      | Error msg -> Alcotest.failf "read_entries: %s" msg
      | Ok back ->
          Alcotest.(check bool) "entries round-trip" true (entries = back))

let test_all_kinds_roundtrip () = check_roundtrip all_kinds_entries

let test_multi_block_roundtrip () =
  (* Force many blocks so the per-block min/max reset and delta encoding
     restart are exercised. *)
  check_roundtrip ~block_events:4 all_kinds_entries

let test_empty_roundtrip () = check_roundtrip []

(* A simulated trace survives store + JSONL re-export byte-identically:
   the same equality the CI round-trip gate checks with cmp. *)
let simulated_entries () =
  let trace = Hyp_trace.create () in
  let config =
    Config.make
      ~partitions:
        [
          Config.partition ~name:"ctl" ~slot_us:6_000 ();
          Config.partition ~name:"io" ~slot_us:6_000 ();
        ]
      ~sources:
        [
          Config.source ~name:"nic" ~line:0 ~subscriber:1 ~c_th_us:5
            ~c_bh_us:50
            ~interarrivals:
              (Rthv_workload.Gen.exponential ~seed:7 ~mean:(us 1_000)
                 ~count:120)
            ~shaping:(Config.Fixed_monitor (DF.d_min (us 500)))
            ();
        ]
      ()
  in
  let sim = Hyp_sim.create ~trace config in
  Hyp_sim.run sim;
  Hyp_trace.to_list trace

let test_simulated_roundtrip () =
  let entries = simulated_entries () in
  Alcotest.(check bool) "trace non-trivial" true (List.length entries > 200);
  check_roundtrip entries;
  Testutil.with_temp (fun path ->
      ignore (Store.write_entries path entries : int);
      match Store.read_entries path with
      | Error msg -> Alcotest.failf "read_entries: %s" msg
      | Ok back ->
          let jsonl e =
            Rthv_core.Trace_export.jsonl_string
              (Rthv_core.Trace_export.trace_of_entries e)
          in
          Alcotest.(check string)
            "JSONL of store equals JSONL of original" (jsonl entries)
            (jsonl back))

(* The spill hook makes the store complete even when the bounded ring
   wraps: record far more events than the ring holds and compare against
   what was recorded, not what was retained. *)
let test_spill_outlives_ring () =
  Testutil.with_temp (fun path ->
      let ring = Hyp_trace.create ~capacity:8 () in
      let w = Store.Writer.create path in
      Hyp_trace.set_spill ring (fun ~time event ->
          Store.Writer.add w ~time event);
      let total = 1000 in
      for i = 0 to total - 1 do
        Hyp_trace.record ring ~time:(i * 10)
          (Hyp_trace.Irq_raised { irq = i; line = 0 })
      done;
      Store.Writer.close w;
      Alcotest.(check bool) "ring dropped" true (Hyp_trace.dropped ring > 0);
      match Store.read_entries path with
      | Error msg -> Alcotest.failf "read_entries: %s" msg
      | Ok back ->
          Alcotest.(check int) "store kept every event" total
            (List.length back);
          List.iteri
            (fun i e ->
              Alcotest.(check bool)
                "event identity" true
                (e = entry (i * 10) (Hyp_trace.Irq_raised { irq = i; line = 0 })))
            back)

(* Pushdown: a time-range filter over many small blocks must skip block
   bodies outside the range and still return exactly the filtered set. *)
let test_time_pushdown () =
  let entries =
    List.init 256 (fun i ->
        entry (i * 100) (Hyp_trace.Irq_raised { irq = i; line = 0 }))
  in
  Testutil.with_temp (fun path ->
      ignore (Store.write_entries ~block_events:16 path entries : int);
      let filter =
        { Store.no_filter with from_time = Some 10_000; to_time = Some 12_000 }
      in
      let seen = ref [] in
      let stats =
        Store.scan ~filter path ~f:(fun ~time ~kind:_ ~a:_ ~b:_ ~c:_ ~d:_ ->
            seen := time :: !seen)
      in
      let expected =
        List.filter_map
          (fun e ->
            if e.Hyp_trace.time >= 10_000 && e.Hyp_trace.time <= 12_000 then
              Some e.Hyp_trace.time
            else None)
          entries
      in
      Alcotest.(check (list int)) "filtered times" expected (List.rev !seen);
      Alcotest.(check int) "16 blocks" 16 stats.Tracestore.s_blocks;
      Alcotest.(check bool) "blocks skipped" true
        (stats.Tracestore.s_blocks_scanned < stats.Tracestore.s_blocks))

let test_kind_pushdown () =
  let entries = all_kinds_entries in
  Testutil.with_temp (fun path ->
      ignore (Store.write_entries path entries : int);
      let kind = Option.get (Store.kind_of_name "monitor_decision") in
      let filter = { Store.no_filter with kinds = Some [ kind ] } in
      match Store.read_entries ~filter path with
      | Error msg -> Alcotest.failf "read_entries: %s" msg
      | Ok back ->
          Alcotest.(check int) "three decisions" 3 (List.length back);
          List.iter
            (fun e ->
              match e.Hyp_trace.event with
              | Hyp_trace.Monitor_decision _ -> ()
              | _ -> Alcotest.fail "kind filter leaked a non-decision")
            back)

(* Partition filter mirrors the CLI: keeps events attributable to the
   partition plus unattributable ones (line-keyed events with no map). *)
let test_partition_filter () =
  let entries =
    [
      entry 0 (Hyp_trace.Slot_switch { from_partition = 0; to_partition = 1 });
      entry 10 (Hyp_trace.Bottom_handler_start { irq = 0; partition = 1 });
      entry 20 (Hyp_trace.Bottom_handler_start { irq = 1; partition = 2 });
      entry 30 (Hyp_trace.Irq_raised { irq = 2; line = 5 });
    ]
  in
  Testutil.with_temp (fun path ->
      ignore (Store.write_entries path entries : int);
      let filter = { Store.no_filter with partition = Some 1 } in
      (match Store.read_entries ~filter path with
      | Error msg -> Alcotest.failf "read_entries: %s" msg
      | Ok back ->
          (* Partition 2's bottom handler drops; the slot switch touches 1,
             and the line-keyed raise is unattributable without a map. *)
          Alcotest.(check int) "kept" 3 (List.length back));
      let line_partition line = if line = 5 then Some 2 else None in
      match Store.read_entries ~filter ~line_partition path with
      | Error msg -> Alcotest.failf "read_entries: %s" msg
      | Ok back ->
          (* With the map the raise resolves to partition 2 and drops too. *)
          Alcotest.(check int) "kept with line map" 2 (List.length back))

let test_corrupt_input () =
  Testutil.with_temp (fun path ->
      let oc = open_out_bin path in
      output_string oc "not a tracestore at all";
      close_out oc;
      match Store.read_entries path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage parsed as a store")

(* qcheck: any generated event stream round-trips identically, across
   random block sizes — Irq_coalesced, span events and every verdict/reason
   included via the constructor list below. *)
let gen_event =
  QCheck2.Gen.(
    let part = 0 -- 6 in
    let line = 0 -- 12 in
    let irq = 0 -- 5_000 in
    oneof
      [
        map2
          (fun a b ->
            Hyp_trace.Slot_switch { from_partition = a; to_partition = b })
          part part;
        map2
          (fun o u -> Hyp_trace.Boundary_deferred { owner = o; until = u })
          part (0 -- 2_000_000);
        map2 (fun irq line -> Hyp_trace.Irq_raised { irq; line }) irq line;
        map2 (fun irq line -> Hyp_trace.Top_handler_run { irq; line }) irq line;
        map
          (fun (((irq, line), arrival), verdict) ->
            Hyp_trace.Monitor_decision { irq; line; arrival; verdict })
          (pair
             (pair (pair irq line) (0 -- 2_000_000))
             (oneofl [ `Admitted; `Denied; `Fallback_direct ]));
        map2
          (fun irq target -> Hyp_trace.Interposition_start { irq; target })
          irq part;
        map2
          (fun target reason -> Hyp_trace.Interposition_end { target; reason })
          part
          (oneofl [ `Budget_exhausted; `Queue_empty ]);
        map
          (fun target -> Hyp_trace.Interposition_crossed_boundary { target })
          part;
        map2
          (fun irq partition ->
            Hyp_trace.Bottom_handler_start { irq; partition })
          irq part;
        map2
          (fun irq partition -> Hyp_trace.Bottom_handler_done { irq; partition })
          irq part;
        map (fun line -> Hyp_trace.Irq_coalesced { line }) line;
      ])

let gen_entries =
  QCheck2.Gen.(
    let* gaps = list_size (0 -- 300) (pair (0 -- 10_000) gen_event) in
    let _, rev =
      List.fold_left
        (fun (t, acc) (gap, ev) ->
          let t = t + gap in
          (t, entry t ev :: acc))
        (0, []) gaps
    in
    let* block_events = 1 -- 64 in
    return (block_events, List.rev rev))

let qcheck_roundtrip =
  Testutil.qtest ~count:100 "store round-trip = identity" gen_entries
    (fun (block_events, entries) ->
      Testutil.with_temp (fun path ->
          ignore (Store.write_entries ~block_events path entries : int);
          match Store.read_entries path with
          | Error msg -> QCheck2.Test.fail_reportf "read_entries: %s" msg
          | Ok back -> entries = back))

let suite =
  [
    Alcotest.test_case "all kinds round-trip" `Quick test_all_kinds_roundtrip;
    Alcotest.test_case "multi-block round-trip" `Quick
      test_multi_block_roundtrip;
    Alcotest.test_case "empty round-trip" `Quick test_empty_roundtrip;
    Alcotest.test_case "simulated trace round-trip" `Quick
      test_simulated_roundtrip;
    Alcotest.test_case "spill outlives the ring" `Quick
      test_spill_outlives_ring;
    Alcotest.test_case "time-range pushdown" `Quick test_time_pushdown;
    Alcotest.test_case "kind pushdown" `Quick test_kind_pushdown;
    Alcotest.test_case "partition filter" `Quick test_partition_filter;
    Alcotest.test_case "corrupt input is an error" `Quick test_corrupt_input;
    qcheck_roundtrip;
  ]
