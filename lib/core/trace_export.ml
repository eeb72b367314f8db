module Cycles = Rthv_engine.Cycles
module Json = Rthv_obs.Json

(* --- Chrome Trace Event JSON -------------------------------------------- *)

(* Thread ids: 0 is the hypervisor track, partition p maps to tid p + 1. *)
let hyp_tid = 0
let tid_of_partition p = p + 1

let max_partition entries =
  List.fold_left
    (fun acc e ->
      let p =
        match e.Hyp_trace.event with
        | Hyp_trace.Slot_switch { from_partition; to_partition } ->
            Stdlib.max from_partition to_partition
        | Hyp_trace.Boundary_deferred { owner; _ } -> owner
        | Hyp_trace.Interposition_start { target; _ }
        | Hyp_trace.Interposition_end { target; _ }
        | Hyp_trace.Interposition_crossed_boundary { target } ->
            target
        | Hyp_trace.Bottom_handler_start { partition; _ }
        | Hyp_trace.Bottom_handler_done { partition; _ } ->
            partition
        | Hyp_trace.Irq_raised _ | Hyp_trace.Top_handler_run _
        | Hyp_trace.Monitor_decision _ | Hyp_trace.Irq_coalesced _ ->
            -1
      in
      Stdlib.max acc p)
    0 entries

let event ~ph ~ts ~tid ~name ?cat ?id ?(args = []) () =
  Json.Obj
    ([
       ("name", Json.String name);
       ("ph", Json.String ph);
       ("ts", Json.Float (Cycles.to_us ts));
       ("pid", Json.Int 1);
       ("tid", Json.Int tid);
     ]
    @ (match cat with Some c -> [ ("cat", Json.String c) ] | None -> [])
    @ (match id with
      | Some i -> [ ("id", Json.String (string_of_int i)) ]
      | None -> [])
    @ match args with [] -> [] | args -> [ ("args", Json.Obj args) ])

let meta_event ~name ~tid args =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "M");
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
      ("args", Json.Obj args);
    ]

let verdict_name = function
  | `Admitted -> "admitted"
  | `Denied -> "denied"
  | `Fallback_direct -> "fallback-direct"

let reason_name = function
  | `Budget_exhausted -> "budget-exhausted"
  | `Queue_empty -> "queue-empty"

let chrome_json ?partition_names trace =
  let entries = Hyp_trace.to_list trace in
  let events = ref [] in
  let emit e = events := e :: !events in
  let partitions = max_partition entries + 1 in
  emit (meta_event ~name:"process_name" ~tid:0 [ ("name", Json.String "rthv hypervisor") ]);
  emit (meta_event ~name:"thread_name" ~tid:hyp_tid [ ("name", Json.String "hypervisor") ]);
  for p = 0 to partitions - 1 do
    let label =
      match partition_names with
      | Some names when p < Array.length names ->
          Printf.sprintf "partition %d (%s)" p names.(p)
      | _ -> Printf.sprintf "partition %d" p
    in
    emit
      (meta_event ~name:"thread_name" ~tid:(tid_of_partition p)
         [ ("name", Json.String label) ]);
    (* Render partitions in index order in the Perfetto track list. *)
    emit
      (meta_event ~name:"thread_sort_index" ~tid:(tid_of_partition p)
         [ ("sort_index", Json.Int (tid_of_partition p)) ])
  done;
  (* The simulation starts with partition 0 owning the first slot at t=0;
     unless the ring buffer dropped the prefix, the slot slices tile the
     timeline exactly. *)
  let open_slot = ref (if Hyp_trace.dropped trace = 0 then Some (0, 0) else None)
  and open_interp = ref None
  and last_time = ref 0 in
  (* Async spans (lowercase b/e, keyed by cat + id): one "irq" span per
     instance from raise to completion, one "bh" span bracketing its
     bottom-half execution.  An end is only emitted when its begin was seen
     — a truncated ring buffer must not produce orphan "e" phases. *)
  let irq_open = Hashtbl.create 64 and bh_open = Hashtbl.create 64 in
  let close_slot ts =
    match !open_slot with
    | Some (owner, _) ->
        emit
          (event ~ph:"E" ~ts ~tid:(tid_of_partition owner) ~name:"slot"
             ~cat:"tdma" ());
        open_slot := None
    | None -> ()
  in
  let close_interp ~reason ts =
    match !open_interp with
    | Some target ->
        emit
          (event ~ph:"E" ~ts ~tid:(tid_of_partition target)
             ~name:"interposition" ~cat:"interposition"
             ~args:[ ("reason", Json.String reason) ]
             ());
        open_interp := None
    | None -> ()
  in
  (match !open_slot with
  | Some (owner, ts) ->
      emit
        (event ~ph:"B" ~ts ~tid:(tid_of_partition owner) ~name:"slot"
           ~cat:"tdma"
           ~args:[ ("partition", Json.Int owner) ]
           ())
  | None -> ());
  List.iter
    (fun e ->
      let ts = e.Hyp_trace.time in
      last_time := ts;
      match e.Hyp_trace.event with
      | Hyp_trace.Slot_switch { from_partition = _; to_partition } ->
          close_slot ts;
          emit
            (event ~ph:"B" ~ts ~tid:(tid_of_partition to_partition)
               ~name:"slot" ~cat:"tdma"
               ~args:[ ("partition", Json.Int to_partition) ]
               ());
          open_slot := Some (to_partition, ts)
      | Hyp_trace.Boundary_deferred { owner; until } ->
          emit
            (event ~ph:"i" ~ts ~tid:(tid_of_partition owner)
               ~name:"boundary deferred" ~cat:"tdma"
               ~args:[ ("until_us", Json.Float (Cycles.to_us until)) ]
               ())
      | Hyp_trace.Irq_raised { irq; line } ->
          Hashtbl.replace irq_open irq ();
          emit
            (event ~ph:"b" ~ts ~tid:hyp_tid ~name:"irq" ~cat:"irq" ~id:irq
               ~args:[ ("line", Json.Int line) ]
               ())
      | Hyp_trace.Top_handler_run { irq; line } ->
          emit
            (event ~ph:"i" ~ts ~tid:hyp_tid ~name:"top handler" ~cat:"irq"
               ~args:[ ("irq", Json.Int irq); ("line", Json.Int line) ]
               ())
      | Hyp_trace.Monitor_decision { irq; line; arrival; verdict } ->
          emit
            (event ~ph:"i" ~ts ~tid:hyp_tid
               ~name:(Printf.sprintf "monitor: %s" (verdict_name verdict))
               ~cat:"monitor"
               ~args:
                 [
                   ("irq", Json.Int irq);
                   ("line", Json.Int line);
                   ("arrival_us", Json.Float (Cycles.to_us arrival));
                 ]
               ())
      | Hyp_trace.Interposition_start { irq; target } ->
          (* At most one interposition is in flight; a dangling start on a
             truncated trace is closed where the next one begins. *)
          close_interp ~reason:"superseded" ts;
          emit
            (event ~ph:"B" ~ts ~tid:(tid_of_partition target)
               ~name:"interposition" ~cat:"interposition"
               ~args:[ ("irq", Json.Int irq) ]
               ());
          open_interp := Some target
      | Hyp_trace.Interposition_end { target = _; reason } ->
          close_interp ~reason:(reason_name reason) ts
      | Hyp_trace.Interposition_crossed_boundary { target } ->
          emit
            (event ~ph:"i" ~ts ~tid:(tid_of_partition target)
               ~name:"crossed boundary" ~cat:"interposition" ())
      | Hyp_trace.Bottom_handler_start { irq; partition } ->
          Hashtbl.replace bh_open irq ();
          emit
            (event ~ph:"b" ~ts ~tid:(tid_of_partition partition)
               ~name:"bottom handler" ~cat:"bh" ~id:irq
               ~args:[ ("irq", Json.Int irq) ]
               ())
      | Hyp_trace.Bottom_handler_done { irq; partition } ->
          if Hashtbl.mem bh_open irq then begin
            Hashtbl.remove bh_open irq;
            emit
              (event ~ph:"e" ~ts ~tid:(tid_of_partition partition)
                 ~name:"bottom handler" ~cat:"bh" ~id:irq ())
          end;
          if Hashtbl.mem irq_open irq then begin
            Hashtbl.remove irq_open irq;
            emit
              (event ~ph:"e" ~ts ~tid:hyp_tid ~name:"irq" ~cat:"irq" ~id:irq
                 ())
          end;
          emit
            (event ~ph:"i" ~ts ~tid:(tid_of_partition partition)
               ~name:"bottom handler done" ~cat:"irq"
               ~args:[ ("irq", Json.Int irq) ]
               ())
      | Hyp_trace.Irq_coalesced { line } ->
          emit
            (event ~ph:"i" ~ts ~tid:hyp_tid ~name:"irq coalesced" ~cat:"irq"
               ~args:[ ("line", Json.Int line) ]
               ()))
    entries;
  close_interp ~reason:"trace-end" !last_time;
  close_slot !last_time;
  Json.Obj
    [
      ("traceEvents", Json.List (List.rev !events));
      ("displayTimeUnit", Json.String "ns");
    ]

let chrome_string ?partition_names trace =
  Json.to_string (chrome_json ?partition_names trace)

let save_chrome ?partition_names ~path trace =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (chrome_string ?partition_names trace);
      output_char oc '\n')

(* --- JSONL --------------------------------------------------------------- *)

let json_of_event = function
  | Hyp_trace.Slot_switch { from_partition; to_partition } ->
      [
        ("ev", Json.String "slot_switch");
        ("from", Json.Int from_partition);
        ("to", Json.Int to_partition);
      ]
  | Hyp_trace.Boundary_deferred { owner; until } ->
      [
        ("ev", Json.String "boundary_deferred");
        ("owner", Json.Int owner);
        ("until", Json.Int until);
      ]
  | Hyp_trace.Irq_raised { irq; line } ->
      [
        ("ev", Json.String "irq_raised");
        ("irq", Json.Int irq);
        ("line", Json.Int line);
      ]
  | Hyp_trace.Top_handler_run { irq; line } ->
      [
        ("ev", Json.String "top_handler");
        ("irq", Json.Int irq);
        ("line", Json.Int line);
      ]
  | Hyp_trace.Monitor_decision { irq; line; arrival; verdict } ->
      [
        ("ev", Json.String "monitor_decision");
        ("irq", Json.Int irq);
        ("line", Json.Int line);
        ("arrival", Json.Int arrival);
        ("verdict", Json.String (verdict_name verdict));
      ]
  | Hyp_trace.Interposition_start { irq; target } ->
      [
        ("ev", Json.String "interposition_start");
        ("irq", Json.Int irq);
        ("target", Json.Int target);
      ]
  | Hyp_trace.Interposition_end { target; reason } ->
      [
        ("ev", Json.String "interposition_end");
        ("target", Json.Int target);
        ("reason", Json.String (reason_name reason));
      ]
  | Hyp_trace.Interposition_crossed_boundary { target } ->
      [
        ("ev", Json.String "interposition_crossed_boundary");
        ("target", Json.Int target);
      ]
  | Hyp_trace.Bottom_handler_start { irq; partition } ->
      [
        ("ev", Json.String "bottom_handler_start");
        ("irq", Json.Int irq);
        ("partition", Json.Int partition);
      ]
  | Hyp_trace.Bottom_handler_done { irq; partition } ->
      [
        ("ev", Json.String "bottom_handler_done");
        ("irq", Json.Int irq);
        ("partition", Json.Int partition);
      ]
  | Hyp_trace.Irq_coalesced { line } ->
      [ ("ev", Json.String "irq_coalesced"); ("line", Json.Int line) ]

let jsonl_line entry =
  Json.to_string
    (Json.Obj
       (("t", Json.Int entry.Hyp_trace.time) :: json_of_event entry.Hyp_trace.event))

let jsonl_string trace =
  let buf = Buffer.create 4096 in
  Hyp_trace.iter trace (fun entry ->
      Buffer.add_string buf (jsonl_line entry);
      Buffer.add_char buf '\n');
  Buffer.contents buf

let save_jsonl ~path trace =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (jsonl_string trace))

let field name extract json =
  match extract (Option.value ~default:Json.Null (Json.member name json)) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let ( let* ) = Result.bind

let event_of_json json =
  let int name = field name Json.to_int json in
  let str name = field name Json.to_str json in
  let* ev = str "ev" in
  match ev with
  | "slot_switch" ->
      let* from_partition = int "from" in
      let* to_partition = int "to" in
      Ok (Hyp_trace.Slot_switch { from_partition; to_partition })
  | "boundary_deferred" ->
      let* owner = int "owner" in
      let* until = int "until" in
      Ok (Hyp_trace.Boundary_deferred { owner; until })
  | "irq_raised" ->
      let* irq = int "irq" in
      let* line = int "line" in
      Ok (Hyp_trace.Irq_raised { irq; line })
  | "top_handler" ->
      let* irq = int "irq" in
      let* line = int "line" in
      Ok (Hyp_trace.Top_handler_run { irq; line })
  | "monitor_decision" ->
      let* irq = int "irq" in
      let* line = int "line" in
      let* arrival = int "arrival" in
      let* verdict =
        let* v = str "verdict" in
        match v with
        | "admitted" -> Ok `Admitted
        | "denied" -> Ok `Denied
        | "fallback-direct" -> Ok `Fallback_direct
        | other -> Error (Printf.sprintf "unknown verdict %S" other)
      in
      Ok (Hyp_trace.Monitor_decision { irq; line; arrival; verdict })
  | "interposition_start" ->
      let* irq = int "irq" in
      let* target = int "target" in
      Ok (Hyp_trace.Interposition_start { irq; target })
  | "interposition_end" ->
      let* target = int "target" in
      let* reason =
        let* r = str "reason" in
        match r with
        | "budget-exhausted" -> Ok `Budget_exhausted
        | "queue-empty" -> Ok `Queue_empty
        | other -> Error (Printf.sprintf "unknown end reason %S" other)
      in
      Ok (Hyp_trace.Interposition_end { target; reason })
  | "interposition_crossed_boundary" ->
      let* target = int "target" in
      Ok (Hyp_trace.Interposition_crossed_boundary { target })
  | "bottom_handler_start" ->
      let* irq = int "irq" in
      let* partition = int "partition" in
      Ok (Hyp_trace.Bottom_handler_start { irq; partition })
  | "bottom_handler_done" ->
      let* irq = int "irq" in
      let* partition = int "partition" in
      Ok (Hyp_trace.Bottom_handler_done { irq; partition })
  | "irq_coalesced" ->
      let* line = int "line" in
      Ok (Hyp_trace.Irq_coalesced { line })
  | other -> Error (Printf.sprintf "unknown event kind %S" other)

let entry_of_jsonl line =
  let* json = Json.parse line in
  let* time = field "t" Json.to_int json in
  let* event = event_of_json json in
  Ok { Hyp_trace.time; event }

(* Flight-recorder dumps (see Flight_recorder) prefix the event stream with
   an {"ev":"meta", ...} header; it carries no trace entry, so re-import
   skips it rather than failing on the unknown kind. *)
let is_meta_line json =
  match Json.member "ev" json with
  | Some (Json.String "meta") -> true
  | _ -> false

let entries_of_jsonl_string contents =
  let lines = String.split_on_char '\n' contents in
  let rec loop lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then loop (lineno + 1) acc rest
        else (
          match Json.parse line with
          | Ok json when is_meta_line json -> loop (lineno + 1) acc rest
          | Ok _ | Error _ -> (
              match entry_of_jsonl line with
              | Ok entry -> loop (lineno + 1) (entry :: acc) rest
              | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)))
  in
  loop 1 [] lines

let load_jsonl ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> entries_of_jsonl_string contents
  | exception Sys_error msg -> Error msg

let trace_of_entries entries =
  let trace =
    Hyp_trace.create ~capacity:(Stdlib.max 1 (List.length entries)) ()
  in
  List.iter
    (fun e -> Hyp_trace.record trace ~time:e.Hyp_trace.time e.Hyp_trace.event)
    entries;
  trace
