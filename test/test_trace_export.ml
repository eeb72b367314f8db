(* Chrome Trace Event and JSONL exporters: structural validity of the
   Chrome document, lossless JSONL round-trips, and the Irq_coalesced
   event surfacing in both. *)

module Cycles = Rthv_engine.Cycles
module Config = Rthv_core.Config
module Hyp_sim = Rthv_core.Hyp_sim
module Hyp_trace = Rthv_core.Hyp_trace
module Export = Rthv_core.Trace_export
module Json = Rthv_obs.Json
module DF = Rthv_analysis.Distance_fn

let us = Testutil.us

let simulated_trace () =
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
                 ~count:80)
            ~shaping:(Config.Fixed_monitor (DF.d_min (us 500)))
            ();
        ]
      ()
  in
  let sim = Hyp_sim.create ~trace config in
  Hyp_sim.run sim;
  (trace, Hyp_sim.stats sim)

let events_of doc =
  match Json.member "traceEvents" doc with
  | Some (Json.List events) -> events
  | _ -> Alcotest.fail "no traceEvents array"

let str_field name e =
  match Json.member name e with Some (Json.String s) -> Some s | _ -> None

let test_chrome_is_valid_json () =
  let trace, _ = simulated_trace () in
  let text = Export.chrome_string ~partition_names:[| "ctl"; "io" |] trace in
  match Json.parse text with
  | Error e -> Alcotest.failf "chrome export does not parse: %s" e
  | Ok doc ->
      let events = events_of doc in
      Alcotest.(check bool) "non-empty" true (List.length events > 10);
      (* Thread names declared for the hypervisor and both partitions. *)
      let thread_names =
        List.filter_map
          (fun e ->
            if str_field "name" e = Some "thread_name" then
              match Json.member "args" e with
              | Some args -> (
                  match Json.member "name" args with
                  | Some (Json.String s) -> Some s
                  | _ -> None)
              | None -> None
            else None)
          events
      in
      List.iter
        (fun expected ->
          if not (List.mem expected thread_names) then
            Alcotest.failf "missing thread %S" expected)
        [ "hypervisor"; "partition 0 (ctl)"; "partition 1 (io)" ]

let test_chrome_timestamps_monotone_and_balanced () =
  let trace, stats = simulated_trace () in
  let doc =
    match Json.parse (Export.chrome_string trace) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let events = events_of doc in
  (* ts values never go backwards over the event list. *)
  let last = ref neg_infinity in
  List.iter
    (fun e ->
      match (str_field "ph" e, Json.member "ts" e) with
      | Some "M", _ -> ()
      | _, Some ts ->
          let t = match Json.to_float ts with Some f -> f | None -> 0.0 in
          if t < !last -. 1e-9 then
            Alcotest.failf "ts went backwards: %.3f after %.3f" t !last;
          last := t
      | _ -> ())
    events;
  (* Begin/end slices balance, and interposition slices match the count
     the simulator reports. *)
  let count ph name_prefix =
    List.length
      (List.filter
         (fun e ->
           str_field "ph" e = Some ph
           &&
           match str_field "name" e with
           | Some n ->
               String.length n >= String.length name_prefix
               && String.sub n 0 (String.length name_prefix) = name_prefix
           | None -> false)
         events)
  in
  Alcotest.(check int)
    "B/E balance"
    (count "B" "")
    (count "E" "");
  Alcotest.(check int)
    "one slice per interposition" stats.Hyp_sim.interpositions_started
    (count "B" "interposition")

let test_jsonl_roundtrip () =
  let trace, _ = simulated_trace () in
  let text = Export.jsonl_string trace in
  match Export.entries_of_jsonl_string text with
  | Error e -> Alcotest.failf "re-read failed: %s" e
  | Ok { Export.entries; dropped } ->
      Alcotest.(check int) "plain JSONL dropped nothing" 0 dropped;
      let original = Hyp_trace.to_list trace in
      Alcotest.(check int) "entry count" (List.length original)
        (List.length entries);
      List.iter2
        (fun (a : Hyp_trace.entry) (b : Hyp_trace.entry) ->
          if a <> b then
            Alcotest.failf "entry mismatch at t=%d: %s vs %s" a.Hyp_trace.time
              (Export.jsonl_line a) (Export.jsonl_line b))
        original entries;
      (* And the rebuilt trace re-exports to the identical byte stream. *)
      Alcotest.(check string) "stable re-export" text
        (Export.jsonl_string (Export.trace_of_entries entries))

let test_jsonl_rejects_malformed () =
  (match Export.entry_of_jsonl "{\"t\":1,\"ev\":\"nosuch\"}" with
  | Ok _ -> Alcotest.fail "accepted unknown event kind"
  | Error _ -> ());
  (match Export.entry_of_jsonl "{\"ev\":\"slot_switch\",\"from\":0,\"to\":1}" with
  | Ok _ -> Alcotest.fail "accepted entry without timestamp"
  | Error _ -> ());
  (match Export.entries_of_jsonl_string {|{"ev":"meta","dropped":-1}|} with
  | Ok _ -> Alcotest.fail "accepted a negative dropped count"
  | Error _ -> ());
  match Export.entries_of_jsonl_string "{\"t\":1,\"ev\":\"irq_coalesced\",\"line\":0}\nnot json\n" with
  | Ok _ -> Alcotest.fail "accepted malformed line"
  | Error msg ->
      Alcotest.(check bool) "error names the line" true
        (String.length msg > 0
        &&
        let has_line2 = ref false in
        String.iteri
          (fun i c ->
            if
              c = '2' && i > 0
              && (msg.[i - 1] = ' ' || msg.[i - 1] = ':')
            then has_line2 := true)
          msg;
        !has_line2)

let coalesced_trace () =
  (* A slow top handler occupies the hypervisor while a second raise lands
     on the fast line's still-pending flag and coalesces (the
     test_hyp_sim.ml trace-replay recipe). *)
  let trace = Hyp_trace.create () in
  let config =
    Config.make
      ~partitions:
        [
          Config.partition ~name:"a" ~slot_us:5_000 ();
          Config.partition ~name:"b" ~slot_us:5_000 ();
        ]
      ~sources:
        [
          Config.source ~name:"slow" ~line:1 ~subscriber:0 ~c_th_us:100
            ~c_bh_us:10 ~interarrivals:[| us 1_000 |] ();
          Config.source ~name:"fast" ~line:0 ~subscriber:0 ~c_th_us:5
            ~c_bh_us:10
            ~interarrivals:[| us 1_005; us 5 |]
            ~arrival_mode:Config.Absolute ();
        ]
      ()
  in
  let sim = Hyp_sim.create ~trace config in
  Hyp_sim.run sim;
  (trace, Hyp_sim.stats sim)

let test_coalesced_in_exports () =
  let trace, stats = coalesced_trace () in
  Alcotest.(check bool) "scenario coalesces" true
    (stats.Hyp_sim.coalesced_irqs > 0);
  let in_trace =
    List.length
      (List.filter
         (fun (e : Hyp_trace.entry) ->
           match e.Hyp_trace.event with
           | Hyp_trace.Irq_coalesced _ -> true
           | _ -> false)
         (Hyp_trace.to_list trace))
  in
  Alcotest.(check int) "one trace event per coalesced raise"
    stats.Hyp_sim.coalesced_irqs in_trace;
  (* JSONL carries them through a round-trip... *)
  (match Export.entries_of_jsonl_string (Export.jsonl_string trace) with
  | Error e -> Alcotest.failf "jsonl: %s" e
  | Ok { Export.entries; _ } ->
      let n =
        List.length
          (List.filter
             (fun (e : Hyp_trace.entry) ->
               match e.Hyp_trace.event with
               | Hyp_trace.Irq_coalesced _ -> true
               | _ -> false)
             entries)
      in
      Alcotest.(check int) "jsonl preserves coalesced" in_trace n);
  (* ...and the Chrome track shows the instant events. *)
  match Json.parse (Export.chrome_string trace) with
  | Error e -> Alcotest.failf "chrome: %s" e
  | Ok doc ->
      let instants =
        List.length
          (List.filter
             (fun e -> str_field "name" e = Some "irq coalesced")
             (events_of doc))
      in
      Alcotest.(check int) "chrome instants" in_trace instants

let test_save_load_files () =
  let trace, _ = simulated_trace () in
  let path = Filename.temp_file "rthv" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Export.save_jsonl ~path trace;
      match Export.load_jsonl ~path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok { Export.entries; _ } ->
          Alcotest.(check int) "all entries back"
            (Hyp_trace.length trace) (List.length entries))

(* An unreadable file is an Error, like a malformed line, not an
   exception: rthv_trace --from-jsonl reports it and exits 1. *)
let test_load_missing_file () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "rthv-missing.jsonl" in
  (try Sys.remove path with Sys_error _ -> ());
  match Export.load_jsonl ~path with
  | Error msg ->
      Alcotest.(check bool) "message names the file" true
        (String.length msg >= String.length path
        && String.sub msg 0 (String.length path) = path)
  | Ok _ -> Alcotest.fail "a missing file loaded"

(* A trace that names partition 100000000 gets a track for each partition
   it names, plus partition 0, which owns the first slot: not one for every
   id up to the largest. *)
let test_chrome_sparse_partitions () =
  let line = {|{"t":0,"ev":"slot_switch","from":0,"to":100000000}|} in
  match Export.entries_of_jsonl_string line with
  | Error e -> Alcotest.failf "jsonl: %s" e
  | Ok { Export.entries; _ } ->
      let doc = Export.chrome_json (Export.trace_of_entries entries) in
      let tracks =
        List.filter_map
          (fun e ->
            if str_field "name" e = Some "thread_sort_index" then
              Json.member "tid" e
            else None)
          (events_of doc)
      in
      Alcotest.(check (list int))
        "two partition tracks, ascending" [ 1; 100_000_001 ]
        (List.filter_map Json.to_int tracks)

(* A re-imported flight dump keeps its ring's dropped count, so the
   Chrome export draws no partition-0 slot before the first recorded
   switch. *)
let test_truncated_dump_slots () =
  match Export.entries_of_jsonl_string Testutil.truncated_flight_dump with
  | Error e -> Alcotest.failf "jsonl: %s" e
  | Ok { Export.entries; dropped } ->
      Alcotest.(check int) "dropped count kept" 6 dropped;
      Alcotest.(check int) "entries" 4 (List.length entries);
      let trace = Export.trace_of_entries ~dropped entries in
      Alcotest.(check int) "rebuilt trace dropped" 6 (Hyp_trace.dropped trace);
      let slots =
        List.filter_map
          (fun e ->
            if str_field "name" e = Some "slot" then
              match
                (str_field "ph" e, Json.member "tid" e, Json.member "ts" e)
              with
              | Some ph, Some (Json.Int tid), Some (Json.Float ts) ->
                  Some (Printf.sprintf "%s tid %d at %.0f us" ph tid ts)
              | _ -> Alcotest.fail "slot event without ph, tid or ts"
            else None)
          (events_of (Export.chrome_json trace))
      in
      Alcotest.(check (list string))
        "one slot, from the switch on"
        [ "B tid 3 at 6000 us"; "E tid 3 at 6050 us" ]
        slots

(* Re-exporting a truncated dump as JSONL keeps its dropped count in a
   meta line, so JSONL -> JSONL -> Chrome draws what JSONL -> Chrome
   does, and a second re-export writes the same bytes. *)
let test_truncated_dump_reexport () =
  let import text =
    match Export.entries_of_jsonl_string text with
    | Ok { Export.entries; dropped } -> Export.trace_of_entries ~dropped entries
    | Error e -> Alcotest.failf "jsonl: %s" e
  in
  let once = import Testutil.truncated_flight_dump in
  let text = Export.jsonl_string once in
  Alcotest.(check string)
    "meta line first" {|{"ev":"meta","dropped":6}|}
    (List.hd (String.split_on_char '\n' text));
  let twice = import text in
  Alcotest.(check string) "stable re-export" text (Export.jsonl_string twice);
  Alcotest.(check string)
    "same Chrome export" (Export.chrome_string once)
    (Export.chrome_string twice)

let suite =
  [
    Alcotest.test_case "chrome export is valid JSON" `Quick
      test_chrome_is_valid_json;
    Alcotest.test_case "chrome ts monotone, slices balanced" `Quick
      test_chrome_timestamps_monotone_and_balanced;
    Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "jsonl rejects malformed input" `Quick
      test_jsonl_rejects_malformed;
    Alcotest.test_case "coalesced raises reach both exporters" `Quick
      test_coalesced_in_exports;
    Alcotest.test_case "save/load files" `Quick test_save_load_files;
    Alcotest.test_case "load of a missing file is an Error" `Quick
      test_load_missing_file;
    Alcotest.test_case "truncated dump: no slot before its first switch"
      `Quick test_truncated_dump_slots;
    Alcotest.test_case "chrome tracks only the named partitions" `Quick
      test_chrome_sparse_partitions;
    Alcotest.test_case "truncated dump: JSONL re-export keeps dropped" `Quick
      test_truncated_dump_reexport;
  ]
