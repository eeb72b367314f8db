module Cycles = Rthv_engine.Cycles
module Json = Rthv_obs.Json

(* --- Chrome Trace Event JSON -------------------------------------------- *)

(* Thread ids: 0 is the hypervisor track, partition p maps to tid p + 1. *)
let hyp_tid = 0
let tid_of_partition p = p + 1

(* The partitions the trace names, ascending, by the store's partition
   rule; partition 0 owns the first slot, so it always has a track. *)
let named_partitions trace =
  let seen = Hashtbl.create 16 in
  Hashtbl.replace seen 0 ();
  Hyp_trace.iter_rows trace (fun ~time:_ ~kind ~a ~b ~c:_ ~d:_ ->
      for i = 0 to 1 do
        let p = Trace_store.row_partition ~line_partition:None ~kind ~a ~b i in
        if p >= 0 then Hashtbl.replace seen p ()
      done);
  List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) seen [])

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

let verdict_name v = Hyp_trace.verdict_names.(Hyp_trace.verdict_code v)
let reason_name r = Hyp_trace.reason_names.(Hyp_trace.reason_code r)

let chrome_json ?partition_names trace =
  let entries = Hyp_trace.to_list trace in
  let events = ref [] in
  let emit e = events := e :: !events in
  emit (meta_event ~name:"process_name" ~tid:0 [ ("name", Json.String "rthv hypervisor") ]);
  emit (meta_event ~name:"thread_name" ~tid:hyp_tid [ ("name", Json.String "hypervisor") ]);
  List.iter
    (fun p ->
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
           [ ("sort_index", Json.Int (tid_of_partition p)) ]))
    (named_partitions trace);
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

(* The JSONL codec: one object per row, its keys the schema's columns. *)
let json_of_row ~time ~kind ~a ~b ~c ~d =
  let value j = match j with 0 -> a | 1 -> b | 2 -> c | _ -> d in
  Json.Obj
    (("t", Json.Int time)
    :: ("ev", Json.String (Hyp_trace.kind_name kind))
    :: List.mapi
         (fun j col ->
           match col with
           | Hyp_trace.Int key -> (key, Json.Int (value j))
           | Hyp_trace.Enum { key; names; _ } ->
               (key, Json.String names.(value j)))
         (Array.to_list (Hyp_trace.columns kind)))

let jsonl_line entry =
  let r = Array.make 6 0 in
  Hyp_trace.encode r 0 ~time:entry.Hyp_trace.time entry.Hyp_trace.event;
  Json.to_string
    (json_of_row ~time:r.(0) ~kind:r.(1) ~a:r.(2) ~b:r.(3) ~c:r.(4) ~d:r.(5))

let jsonl_string trace =
  let buf = Buffer.create 4096 in
  Hyp_trace.iter_rows trace (fun ~time ~kind ~a ~b ~c ~d ->
      Buffer.add_string buf
        (Json.to_string (json_of_row ~time ~kind ~a ~b ~c ~d));
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

let cell json = function
  | Hyp_trace.Int key -> field key Json.to_int json
  | Hyp_trace.Enum { key; what; names } -> (
      let* name = field key Json.to_str json in
      match Array.find_index (String.equal name) names with
      | Some code -> Ok code
      | None -> Error (Printf.sprintf "unknown %s %S" what name))

let entry_of_jsonl line =
  let* json = Json.parse line in
  let* time = field "t" Json.to_int json in
  let* ev = field "ev" Json.to_str json in
  let* kind =
    Option.to_result
      ~none:(Printf.sprintf "unknown event kind %S" ev)
      (Hyp_trace.kind_of_name ev)
  in
  let cols = Hyp_trace.columns kind and v = Array.make 4 0 in
  let rec fill j =
    if j = Array.length cols then Ok ()
    else
      let* x = cell json cols.(j) in
      v.(j) <- x;
      fill (j + 1)
  in
  let* () = fill 0 in
  Ok
    {
      Hyp_trace.time;
      event = Hyp_trace.decode ~kind ~a:v.(0) ~b:v.(1) ~c:v.(2) ~d:v.(3);
    }

type jsonl = { entries : Hyp_trace.entry list; dropped : int }

(* Flight-recorder dumps (see Flight_recorder) prefix the event stream with
   an {"ev":"meta", ...} header.  It carries no trace entry, only the
   ring's statistics, of which re-import keeps the dropped count. *)
let meta_dropped json =
  match Json.member "ev" json with
  | Some (Json.String "meta") -> (
      match Json.member "dropped" json with
      | None -> Some (Ok 0)
      | Some v -> (
          match Json.to_int v with
          | Some n when n >= 0 -> Some (Ok n)
          | _ -> Some (Error "meta line: \"dropped\" is not a count")))
  | _ -> None

let entries_of_jsonl_string contents =
  let lines = String.split_on_char '\n' contents in
  let rec loop lineno acc dropped = function
    | [] -> Ok { entries = List.rev acc; dropped }
    | line :: rest ->
        let fail msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
        if String.trim line = "" then loop (lineno + 1) acc dropped rest
        else (
          match Result.map meta_dropped (Json.parse line) with
          | Ok (Some (Ok n)) ->
              loop (lineno + 1) acc (Stdlib.max dropped n) rest
          | Ok (Some (Error msg)) -> fail msg
          | Ok None | Error _ -> (
              match entry_of_jsonl line with
              | Ok entry -> loop (lineno + 1) (entry :: acc) dropped rest
              | Error msg -> fail msg))
  in
  loop 1 [] 0 lines

let load_jsonl ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> entries_of_jsonl_string contents
  | exception Sys_error msg -> Error msg

let trace_of_entries ?dropped entries =
  let trace =
    Hyp_trace.create ~capacity:(Stdlib.max 1 (List.length entries)) ?dropped ()
  in
  List.iter
    (fun e -> Hyp_trace.record trace ~time:e.Hyp_trace.time e.Hyp_trace.event)
    entries;
  trace
