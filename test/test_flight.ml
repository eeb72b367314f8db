(* Crash flight recorder: ring wraparound, allocation-free recording, and
   the post-mortem dump paths (oracle violation, uncaught exception) with
   re-import through the standard JSONL loader. *)

module Cycles = Rthv_engine.Cycles
module Config = Rthv_core.Config
module Hyp_sim = Rthv_core.Hyp_sim
module Hyp_trace = Rthv_core.Hyp_trace
module Admission = Rthv_core.Admission
module FR = Rthv_core.Flight_recorder
module Trace_export = Rthv_core.Trace_export
module Gen = Rthv_workload.Gen

(* Ring wraparound: record k events into a capacity-c ring; the last
   min(c, k) survive in order, and the totals account for every event.
   Capacities reach past the ring's first allocation block (256 entries),
   so the arrays double before they wrap, and the record counts include
   the boundaries around the first wrap: c-1, c, c+1 and 3c. *)
let ring_sizes =
  QCheck2.Gen.(
    let* cap = oneof [ 1 -- 32; 200 -- 2100 ] in
    let+ k = oneof [ 0 -- 100; oneofl [ cap - 1; cap; cap + 1; 3 * cap ] ] in
    (cap, k))

let prop_ring_wraparound (cap, k) =
  let t = Hyp_trace.create ~capacity:cap () in
  for i = 0 to k - 1 do
    Hyp_trace.record t ~time:i (Hyp_trace.Irq_coalesced { line = i })
  done;
  let kept = Stdlib.min cap k in
  Hyp_trace.capacity t = cap
  && Hyp_trace.length t = kept
  && Hyp_trace.recorded t = k
  && Hyp_trace.dropped t = k - kept
  &&
  let entries = Hyp_trace.to_list t in
  List.length entries = kept
  && List.for_all2
       (fun e i ->
         e.Hyp_trace.time = i
         &&
         match e.Hyp_trace.event with
         | Hyp_trace.Irq_coalesced { line } -> line = i
         | _ -> false)
       entries
       (List.init kept (fun j -> k - kept + j))

let test_record_allocation_free () =
  let t = Hyp_trace.create ~capacity:64 () in
  let ev = Hyp_trace.Irq_coalesced { line = 7 } in
  (* Warm past the high-water mark, then steady-state records are two
     array stores. *)
  for i = 0 to 127 do
    Hyp_trace.record t ~time:i ev
  done;
  let before = Gc.minor_words () in
  for i = 0 to 999 do
    Hyp_trace.record t ~time:i ev
  done;
  let after = Gc.minor_words () in
  Testutil.close "steady-state record allocates nothing" 0. (after -. before)

(* A directory path that does not exist yet: the recorder creates it on
   first dump. *)
let fresh_dir () =
  let path = Filename.temp_file "rthv-flight" ".d" in
  Sys.remove path;
  path

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* The audit hook dumps the flight ring, then raises Audit_failure. *)
let violating_run ?trace () =
  Hyp_sim.run
    (Hyp_sim.create ?trace ~policies:(Testutil.admit_all ())
       (Testutil.violating_config ()))

let test_dump_on_oracle_violation () =
  let dir = fresh_dir () in
  FR.enable ~capacity:256 ~dir ();
  Fun.protect ~finally:FR.disable (fun () ->
      Alcotest.(check bool) "suite audit hook installed" true
        (Rthv_check.Audit_hook.installed ());
      (match violating_run () with
      | () -> Alcotest.fail "expected Audit_failure"
      | exception Rthv_check.Audit_hook.Audit_failure diags ->
          Alcotest.(check bool) "diagnostics reported" true (diags <> []));
      match FR.last_dump () with
      | None -> Alcotest.fail "no flight dump written"
      | Some path ->
          Alcotest.(check bool) "dump file exists" true
            (Sys.file_exists path);
          Alcotest.(check bool) "reason in filename" true
            (contains ~needle:"oracle_violation" path);
          let ic = open_in path in
          let meta = input_line ic in
          close_in ic;
          Alcotest.(check bool) "meta line carries schema" true
            (contains ~needle:"rthv-flight/1" meta);
          Alcotest.(check bool) "meta line carries an RTHV code" true
            (contains ~needle:"RTHV1" meta);
          (* The dump must re-import through the standard loader (the meta
             line is skipped), so rthv_trace --from-jsonl can replay it. *)
          (match Trace_export.load_jsonl ~path with
          | Ok { Trace_export.entries; _ } ->
              Alcotest.(check bool) "re-imports with events" true
                (List.length entries > 0)
          | Error msg -> Alcotest.failf "re-import failed: %s" msg);
          (* The audited run keeps the recorder's ring, not a bigger one:
             the dump holds its last 256 events. *)
          let lines =
            In_channel.with_open_text path In_channel.input_all
            |> String.split_on_char '\n'
            |> List.filter (fun l -> l <> "")
          in
          Alcotest.(check int) "meta line plus 256 events" 257
            (List.length lines))

(* The oracle formats a diagnostic's location when it reports it, not
   for every entry it replays: the RTHV102 locations of the violating run
   must still name the same entries and times. *)
let test_violation_locations () =
  match violating_run () with
  | () -> Alcotest.fail "expected Audit_failure"
  | exception Rthv_check.Audit_hook.Audit_failure diags ->
      let locs =
        List.filter_map
          (fun (d : Rthv_check.Diagnostic.t) ->
            if d.Rthv_check.Diagnostic.code = "RTHV102" then
              Some d.Rthv_check.Diagnostic.loc
            else None)
          diags
      in
      Alcotest.(check int) "RTHV102 diagnostics" 26 (List.length locs);
      List.iter
        (fun loc ->
          Alcotest.(check bool) (loc ^ " reported") true (List.mem loc locs))
        [ "trace[9] t=1010.64us"; "trace[282] t=24750.64us" ]

(* The audit folds the events as they are recorded, so the ring's capacity
   does not limit it: a 64-entry ring gets the same findings as a ring that
   keeps every event. *)
let test_violation_small_ring () =
  let findings capacity =
    match violating_run ~trace:(Hyp_trace.create ~capacity ()) () with
    | () -> Alcotest.fail "expected Audit_failure"
    | exception Rthv_check.Audit_hook.Audit_failure diags ->
        List.map (Format.asprintf "%a" Rthv_check.Diagnostic.pp) diags
  in
  let full = findings (1 lsl 20) in
  Alcotest.(check int) "findings" 70 (List.length full);
  Alcotest.(check (list string)) "64-entry ring" full (findings 64)

let test_dump_on_uncaught_exception () =
  let dir = fresh_dir () in
  FR.enable ~dir ();
  Fun.protect ~finally:FR.disable (fun () ->
      let calls = ref 0 in
      let exploding =
        Admission.custom ~name:"exploding"
          ~decide:(fun _ ->
            incr calls;
            if !calls > 3 then failwith "injected fault";
            true)
          ~commit:(fun _ -> ())
          ()
      in
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
                  (Gen.constant ~period:(Cycles.of_us 2_000) ~count:50)
                ~shaping:Config.No_shaping ()
            ]
          ()
      in
      (match
         Hyp_sim.run (Hyp_sim.create ~policies:[ ("nic", exploding) ] config)
       with
      | () -> Alcotest.fail "expected the injected fault to escape"
      | exception Failure msg ->
          Alcotest.(check string) "fault propagated" "injected fault" msg);
      match FR.last_dump () with
      | None -> Alcotest.fail "no flight dump written"
      | Some path ->
          Alcotest.(check bool) "reason in filename" true
            (contains ~needle:"uncaught_exception" path);
          let ic = open_in path in
          let meta = input_line ic in
          close_in ic;
          Alcotest.(check bool) "detail carries the exception" true
            (contains ~needle:"injected fault" meta))

let test_disabled_recorder_dumps_nothing () =
  FR.disable ();
  let before = FR.last_dump () in
  Alcotest.(check bool) "dump returns None when disabled" true
    (FR.dump ~reason:"test" () = None);
  Alcotest.(check bool) "last_dump unchanged" true (FR.last_dump () = before)

let suite =
  [
    Testutil.qtest "ring wraparound keeps the last capacity entries"
      ring_sizes prop_ring_wraparound;
    Alcotest.test_case "steady-state record is allocation-free" `Quick
      test_record_allocation_free;
    Alcotest.test_case "oracle violation dumps a replayable ring" `Quick
      test_dump_on_oracle_violation;
    Alcotest.test_case "oracle violation locations are pinned" `Quick
      test_violation_locations;
    Alcotest.test_case "oracle audits past a small ring" `Quick
      test_violation_small_ring;
    Alcotest.test_case "uncaught exception dumps the ring" `Quick
      test_dump_on_uncaught_exception;
    Alcotest.test_case "disabled recorder never dumps" `Quick
      test_disabled_recorder_dumps_nothing;
  ]
