(* Binary trace store: lossless round-trips (explicit all-kinds list plus a
   qcheck property over random event streams), block-index pushdown, the
   ring spill hook streaming an over-capacity run, and corrupt input. *)

module Cycles = Rthv_engine.Cycles
module Hyp_trace = Rthv_core.Hyp_trace
module Store = Rthv_core.Trace_store
module Export = Rthv_core.Trace_export
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
      let kind = Option.get (Hyp_trace.kind_of_name "monitor_decision") in
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

(* The format is frozen: the store of a fixed simulated trace keeps these
   bytes, in one block and in 16-event blocks. *)
let test_store_bytes_pinned () =
  let entries = simulated_entries () in
  Alcotest.(check int) "simulated events" 660 (List.length entries);
  List.iter
    (fun (block_events, md5, len) ->
      Testutil.with_temp (fun path ->
          ignore (Store.write_entries ?block_events path entries : int);
          let bytes = In_channel.with_open_bin path In_channel.input_all in
          Alcotest.(check int) "store length" len (String.length bytes);
          Alcotest.(check string) "store MD5" md5
            (Digest.to_hex (Digest.string bytes))))
    [
      (None, "6da959ff9b4d3efb83c3801cb7486c07", 4113);
      (Some 16, "ac6cf9600de2f39cc675c82cc488d67a", 5215);
    ]

(* Extreme values take every varint width up to nine bytes, in every
   column, and come back unchanged. *)
let test_extreme_values_roundtrip () =
  let values = [ 0; 1; -1; 127; 128; -65; max_int; min_int; 1 lsl 61 ] in
  let entries =
    List.concat_map
      (fun v ->
        [
          entry v
            (Hyp_trace.Monitor_decision
               {
                 irq = v;
                 line = -v;
                 arrival = v lxor 0x5555;
                 verdict = `Denied;
               });
          entry (-v)
            (Hyp_trace.Slot_switch { from_partition = v; to_partition = 70 });
          entry v
            (Hyp_trace.Bottom_handler_done { irq = max_int; partition = v });
        ])
      values
  in
  check_roundtrip ~block_events:5 entries;
  check_roundtrip entries

(* --- decoder robustness --------------------------------------------------- *)

(* Offsets into a store file: the end of the file header (magic, kind
   count, arity table), then each block's start and its two lengths. *)
(* The magic line "rthv-tracestore/1\n", the kind count and the arities. *)
let file_header_len = String.length "rthv-tracestore/1\n" + 1 + Hyp_trace.n_kinds

type block = { start : int; header_len : int; body_len : int }

let block_end b = b.start + 8 + b.header_len + b.body_len

let u32_at s i =
  Char.code s.[i]
  lor (Char.code s.[i + 1] lsl 8)
  lor (Char.code s.[i + 2] lsl 16)
  lor (Char.code s.[i + 3] lsl 24)

let blocks_of s =
  let rec go pos acc =
    if pos >= String.length s then List.rev acc
    else
      let header_len = u32_at s pos in
      let body_len = u32_at s (pos + 4 + header_len) in
      let b = { start = pos; header_len; body_len } in
      go (block_end b) (b :: acc)
  in
  go file_header_len []

(* The recorded multi-block store the mutations start from. *)
let recorded_store () =
  let entries = simulated_entries () in
  Testutil.with_temp (fun path ->
      ignore (Store.write_entries ~block_events:16 path entries : int);
      (entries, In_channel.with_open_bin path In_channel.input_all))

(* [read_entries] of a store holding [bytes]: [Ok] or [Error], and any
   other exception escapes to fail the test. *)
let read_bytes bytes =
  Testutil.with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
      Store.read_entries path)

let set_byte s i c =
  let b = Bytes.of_string s in
  Bytes.set b i c;
  Bytes.to_string b

(* A flipped high length byte declares ~2 GB: the scan refuses it against
   the file's size instead of allocating it. *)
let test_declared_lengths_bounded () =
  let _, store = recorded_store () in
  let first = List.hd (blocks_of store) in
  let expect_error what bytes needle =
    match read_bytes bytes with
    | Ok _ -> Alcotest.failf "%s: decoded" what
    | Error msg ->
        if not (Testutil.contains msg needle) then
          Alcotest.failf "%s: unexpected error %S" what msg
  in
  expect_error "header length"
    (set_byte store (first.start + 3) '\x7f')
    "block header length";
  expect_error "body length"
    (set_byte store (first.start + 4 + first.header_len + 3) '\x7f')
    "block body length";
  (* The row count is the header's first varint: 16 rows, one byte. *)
  Alcotest.(check int) "16 rows" 16 (Char.code store.[first.start + 4]);
  expect_error "row count"
    (set_byte store (first.start + 4) (Char.chr ((first.body_len / 2) + 1)))
    "rows cannot fit"

(* A store cut at a block boundary is a shorter store; cut anywhere else,
   it is an error. *)
let test_truncation_at_every_offset () =
  let entries, store = recorded_store () in
  let blocks = blocks_of store in
  Alcotest.(check bool) "multi-block" true (List.length blocks > 10);
  (* Events held by the blocks that end at or before each offset. *)
  let complete = Hashtbl.create 64 in
  Hashtbl.replace complete file_header_len 0;
  ignore
    (List.fold_left
       (fun (held, i) b ->
         let n = min 16 (List.length entries - held) in
         Hashtbl.replace complete (block_end b) (held + n);
         (held + n, i + 1))
       (0, 0) blocks
      : int * int);
  for cut = 0 to String.length store - 1 do
    let back = read_bytes (String.sub store 0 cut) in
    match (back, Hashtbl.find_opt complete cut) with
    | Ok back, Some held ->
        if back <> List.filteri (fun i _ -> i < held) entries then
          Alcotest.failf "cut at block boundary %d: wrong prefix" cut
    | Error msg, Some _ -> Alcotest.failf "cut at block boundary %d: %s" cut msg
    | Ok _, None -> Alcotest.failf "cut inside a block at %d decoded" cut
    | Error _, None -> ()
  done

(* Any single byte changed to any other value: Ok or Error, nothing else. *)
let qcheck_byte_flips =
  let _, store = recorded_store () in
  Testutil.qtest ~count:300 "single-byte flips never raise"
    QCheck2.Gen.(pair (0 -- (String.length store - 1)) (1 -- 255))
    (fun (i, delta) ->
      let c = Char.chr ((Char.code store.[i] + delta) land 0xff) in
      match read_bytes (set_byte store i c) with Ok _ | Error _ -> true)

(* One block's header in front of another block's body decodes or fails,
   and never raises. *)
let test_spliced_blocks () =
  let _, store = recorded_store () in
  let blocks = Array.of_list (blocks_of store) in
  let header b = String.sub store b.start (4 + b.header_len) in
  let body b = String.sub store (b.start + 4 + b.header_len) (4 + b.body_len) in
  let prefix = String.sub store 0 (block_end blocks.(0)) in
  Array.iteri
    (fun i hb ->
      Array.iteri
        (fun j bb ->
          if i <> j then
            match read_bytes (prefix ^ header hb ^ body bb) with
            | Ok _ | Error _ -> ())
        blocks)
    blocks

(* A block whose body lost its last byte (and whose body length says so)
   ends inside its last varint.  The decoder must stop at the body's end,
   although its buffer still holds earlier, longer bodies past it. *)
let test_short_body_stops_at_its_end () =
  let _, store = recorded_store () in
  let u32 n = String.init 4 (fun k -> Char.chr ((n lsr (8 * k)) land 0xff)) in
  List.iter
    (fun b ->
      let body_at = b.start + 8 + b.header_len in
      let cut =
        String.sub store 0 (body_at - 4)
        ^ u32 (b.body_len - 1)
        ^ String.sub store body_at (b.body_len - 1)
        ^ String.sub store (block_end b) (String.length store - block_end b)
      in
      match read_bytes cut with
      | Ok _ ->
          Alcotest.failf "block at %d decoded without its last byte" b.start
      | Error msg ->
          Alcotest.(check string)
            (Printf.sprintf "block at %d" b.start)
            "truncated varint" msg)
    (blocks_of store)

(* After one warm-up block, [Writer.add] of prebuilt events allocates
   nothing per event: no row tuple, no per-byte buffer call. *)
let test_writer_add_allocation () =
  let events = Array.of_list all_kinds_entries in
  let m = Array.length events in
  let n = 100_000 in
  Testutil.with_temp (fun path ->
      let w = Store.Writer.create path in
      let add k =
        let e = events.(k mod m) in
        Store.Writer.add w ~time:(k * 10) e.Hyp_trace.event
      in
      for k = 0 to Tracestore.default_block_events do
        add k
      done;
      let before = Gc.minor_words () in
      for k = 1 to n do
        add k
      done;
      let words = Gc.minor_words () -. before in
      Store.Writer.close w;
      let per_event = words /. float_of_int n in
      if per_event >= 0.1 then
        Alcotest.failf "Writer.add allocated %.0f minor words (%.2f per event)"
          words per_event)

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

(* qcheck: the row is the one encoding.  Every generated event (all kinds,
   every verdict and reason) decodes back from its row, its JSONL line
   re-reads to a row that prints the same line, and a ring's rows come
   back unchanged from a store written row by row. *)
let qcheck_row_codec =
  Testutil.qtest ~count:100 "row codec round-trips" gen_entries
    (fun (block_events, entries) ->
      let r = Array.make 6 0 in
      let decodes (e : Hyp_trace.entry) =
        Hyp_trace.encode r 0 ~time:e.Hyp_trace.time e.Hyp_trace.event;
        Hyp_trace.decode ~kind:r.(1) ~a:r.(2) ~b:r.(3) ~c:r.(4) ~d:r.(5)
        = e.Hyp_trace.event
      in
      let jsonl_stable e =
        let line = Export.jsonl_line e in
        match Export.entry_of_jsonl line with
        | Ok back -> Export.jsonl_line back = line
        | Error msg -> QCheck2.Test.fail_reportf "%s: %s" line msg
      in
      let rows_of iter =
        let acc = ref [] in
        iter (fun ~time ~kind ~a ~b ~c ~d ->
            acc := (time, kind, a, b, c, d) :: !acc);
        List.rev !acc
      in
      let ring = Hyp_trace.create ~capacity:(max 1 (List.length entries)) () in
      List.iter
        (fun e -> Hyp_trace.record ring ~time:e.Hyp_trace.time e.Hyp_trace.event)
        entries;
      let stored =
        Testutil.with_temp (fun path ->
            let w = Store.Writer.create ~block_events path in
            Hyp_trace.iter_rows ring (Store.Writer.add_row w);
            Store.Writer.close w;
            rows_of (fun f -> ignore (Store.scan path ~f : Tracestore.stats)))
      in
      List.for_all decodes entries
      && List.for_all jsonl_stable entries
      && stored = rows_of (Hyp_trace.iter_rows ring))

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
    qcheck_row_codec;
    Alcotest.test_case "store bytes pinned" `Quick test_store_bytes_pinned;
    Alcotest.test_case "extreme values round-trip" `Quick
      test_extreme_values_roundtrip;
    Alcotest.test_case "declared lengths bounded by the file" `Quick
      test_declared_lengths_bounded;
    Alcotest.test_case "truncation at every offset" `Quick
      test_truncation_at_every_offset;
    qcheck_byte_flips;
    Alcotest.test_case "spliced header and body" `Quick test_spliced_blocks;
    Alcotest.test_case "a short body stops at its end" `Quick
      test_short_body_stops_at_its_end;
    Alcotest.test_case "Writer.add allocates nothing per event" `Quick
      test_writer_add_allocation;
  ]
