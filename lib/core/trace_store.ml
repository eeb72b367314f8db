module Cycles = Rthv_engine.Cycles
module Tracestore = Rthv_obs.Tracestore

let schema = Tracestore.format_name

(* Kind ids are the on-disk representation: append-only.  Names and order
   match the JSONL "ev" vocabulary of Trace_export so filters and docs
   speak one language. *)
let kind_table =
  [|
    ("slot_switch", 2);
    ("boundary_deferred", 2);
    ("irq_raised", 2);
    ("top_handler", 2);
    ("monitor_decision", 4);
    ("interposition_start", 2);
    ("interposition_end", 2);
    ("interposition_crossed_boundary", 1);
    ("bottom_handler_start", 2);
    ("bottom_handler_done", 2);
    ("irq_coalesced", 1);
  |]

let n_kinds = Array.length kind_table
let arities = Array.map snd kind_table
let kind_name k = fst kind_table.(k)
let kind_names = Array.to_list (Array.map fst kind_table)

let kind_of_name name =
  let rec find i =
    if i = n_kinds then None
    else if fst kind_table.(i) = name then Some i
    else find (i + 1)
  in
  find 0

let kind_of_event = function
  | Hyp_trace.Slot_switch _ -> 0
  | Hyp_trace.Boundary_deferred _ -> 1
  | Hyp_trace.Irq_raised _ -> 2
  | Hyp_trace.Top_handler_run _ -> 3
  | Hyp_trace.Monitor_decision _ -> 4
  | Hyp_trace.Interposition_start _ -> 5
  | Hyp_trace.Interposition_end _ -> 6
  | Hyp_trace.Interposition_crossed_boundary _ -> 7
  | Hyp_trace.Bottom_handler_start _ -> 8
  | Hyp_trace.Bottom_handler_done _ -> 9
  | Hyp_trace.Irq_coalesced _ -> 10

let verdict_code = function `Admitted -> 0 | `Denied -> 1 | `Fallback_direct -> 2
let reason_code = function `Budget_exhausted -> 0 | `Queue_empty -> 1

let encode_event = function
  | Hyp_trace.Slot_switch { from_partition; to_partition } ->
      (from_partition, to_partition, 0, 0)
  | Hyp_trace.Boundary_deferred { owner; until } -> (owner, until, 0, 0)
  | Hyp_trace.Irq_raised { irq; line } -> (irq, line, 0, 0)
  | Hyp_trace.Top_handler_run { irq; line } -> (irq, line, 0, 0)
  | Hyp_trace.Monitor_decision { irq; line; arrival; verdict } ->
      (irq, line, arrival, verdict_code verdict)
  | Hyp_trace.Interposition_start { irq; target } -> (irq, target, 0, 0)
  | Hyp_trace.Interposition_end { target; reason } ->
      (target, reason_code reason, 0, 0)
  | Hyp_trace.Interposition_crossed_boundary { target } -> (target, 0, 0, 0)
  | Hyp_trace.Bottom_handler_start { irq; partition } -> (irq, partition, 0, 0)
  | Hyp_trace.Bottom_handler_done { irq; partition } -> (irq, partition, 0, 0)
  | Hyp_trace.Irq_coalesced { line } -> (line, 0, 0, 0)

let corrupt fmt = Printf.ksprintf (fun s -> raise (Tracestore.Corrupt s)) fmt

let decode_event ~kind ~a ~b ~c ~d =
  match kind with
  | 0 -> Hyp_trace.Slot_switch { from_partition = a; to_partition = b }
  | 1 -> Hyp_trace.Boundary_deferred { owner = a; until = b }
  | 2 -> Hyp_trace.Irq_raised { irq = a; line = b }
  | 3 -> Hyp_trace.Top_handler_run { irq = a; line = b }
  | 4 ->
      let verdict =
        match d with
        | 0 -> `Admitted
        | 1 -> `Denied
        | 2 -> `Fallback_direct
        | v -> corrupt "monitor_decision verdict code %d" v
      in
      Hyp_trace.Monitor_decision { irq = a; line = b; arrival = c; verdict }
  | 5 -> Hyp_trace.Interposition_start { irq = a; target = b }
  | 6 ->
      let reason =
        match b with
        | 0 -> `Budget_exhausted
        | 1 -> `Queue_empty
        | r -> corrupt "interposition_end reason code %d" r
      in
      Hyp_trace.Interposition_end { target = a; reason }
  | 7 -> Hyp_trace.Interposition_crossed_boundary { target = a }
  | 8 -> Hyp_trace.Bottom_handler_start { irq = a; partition = b }
  | 9 -> Hyp_trace.Bottom_handler_done { irq = a; partition = b }
  | 10 -> Hyp_trace.Irq_coalesced { line = a }
  | k -> corrupt "event kind %d out of range" k

(* --- partition bitmap ---------------------------------------------------- *)

let overflow_partition_bit = 61
let unattributed_bit = 62

let partition_mask p =
  if p < 0 then 1 lsl unattributed_bit
  else if p >= overflow_partition_bit then 1 lsl overflow_partition_bit
  else 1 lsl p

(* The [i]-th (0 or 1) partition an event row names by kind id, or -1:
   slot switches name from and to, partition-keyed rows one, line-keyed
   rows their line's subscriber through the optional map. *)
let row_partition ~line_partition ~kind ~a ~b i =
  match kind with
  | 0 -> if i = 0 then a else b  (* slot_switch from/to *)
  | _ when i > 0 -> -1
  | 1 | 6 | 7 -> a  (* deferral owner; interposition end and crossing target *)
  | 5 | 8 | 9 -> b  (* interposition start target, bh start/done *)
  | 2 | 3 | 4 | 10 -> (
      (* irq_raised/top_handler/monitor_decision carry the line in column
         b, irq_coalesced in column a *)
      match line_partition with
      | None -> -1
      | Some f -> (
          match f (if kind = 10 then a else b) with Some q -> q | None -> -1))
  | _ -> -1

let row_partition_matches ~line_partition ~p ~kind ~a ~b =
  let first = row_partition ~line_partition ~kind ~a ~b 0 in
  let second = row_partition ~line_partition ~kind ~a ~b 1 in
  first = p || second = p || (first < 0 && second < 0)

(* --- writer -------------------------------------------------------------- *)

module Writer = struct
  type t = {
    oc : out_channel;
    w : Tracestore.Writer.t;
    mutable closed : bool;
  }

  let create ?block_events path =
    let oc = open_out_bin path in
    let w =
      try Tracestore.Writer.create ?block_events ~arities oc
      with e ->
        close_out_noerr oc;
        raise e
    in
    { oc; w; closed = false }

  (* One constructor, one append: the columns of [encode_event], the kind
     of [kind_of_event] and the partition bits the block index needs. *)
  let add t ~time event =
    let w = t.w and none = 1 lsl unattributed_bit in
    match event with
    | Hyp_trace.Slot_switch { from_partition; to_partition } ->
        Tracestore.Writer.append w ~time ~kind:0
          ~pmask:
            (partition_mask from_partition lor partition_mask to_partition)
          ~a:from_partition ~b:to_partition ~c:0 ~d:0
    | Hyp_trace.Boundary_deferred { owner; until } ->
        Tracestore.Writer.append w ~time ~kind:1 ~pmask:(partition_mask owner)
          ~a:owner ~b:until ~c:0 ~d:0
    | Hyp_trace.Irq_raised { irq; line } ->
        Tracestore.Writer.append w ~time ~kind:2 ~pmask:none ~a:irq ~b:line
          ~c:0 ~d:0
    | Hyp_trace.Top_handler_run { irq; line } ->
        Tracestore.Writer.append w ~time ~kind:3 ~pmask:none ~a:irq ~b:line
          ~c:0 ~d:0
    | Hyp_trace.Monitor_decision { irq; line; arrival; verdict } ->
        Tracestore.Writer.append w ~time ~kind:4 ~pmask:none ~a:irq ~b:line
          ~c:arrival ~d:(verdict_code verdict)
    | Hyp_trace.Interposition_start { irq; target } ->
        Tracestore.Writer.append w ~time ~kind:5 ~pmask:(partition_mask target)
          ~a:irq ~b:target ~c:0 ~d:0
    | Hyp_trace.Interposition_end { target; reason } ->
        Tracestore.Writer.append w ~time ~kind:6 ~pmask:(partition_mask target)
          ~a:target ~b:(reason_code reason) ~c:0 ~d:0
    | Hyp_trace.Interposition_crossed_boundary { target } ->
        Tracestore.Writer.append w ~time ~kind:7 ~pmask:(partition_mask target)
          ~a:target ~b:0 ~c:0 ~d:0
    | Hyp_trace.Bottom_handler_start { irq; partition } ->
        Tracestore.Writer.append w ~time ~kind:8
          ~pmask:(partition_mask partition) ~a:irq ~b:partition ~c:0 ~d:0
    | Hyp_trace.Bottom_handler_done { irq; partition } ->
        Tracestore.Writer.append w ~time ~kind:9
          ~pmask:(partition_mask partition) ~a:irq ~b:partition ~c:0 ~d:0
    | Hyp_trace.Irq_coalesced { line } ->
        Tracestore.Writer.append w ~time ~kind:10 ~pmask:none ~a:line ~b:0
          ~c:0 ~d:0

  let add_entry t (e : Hyp_trace.entry) = add t ~time:e.Hyp_trace.time e.Hyp_trace.event
  let events_written t = Tracestore.Writer.events_written t.w

  let close t =
    if not t.closed then begin
      t.closed <- true;
      Fun.protect
        ~finally:(fun () -> close_out t.oc)
        (fun () -> Tracestore.Writer.flush_block t.w)
    end
end

let write_entries ?block_events path entries =
  let t = Writer.create ?block_events path in
  Fun.protect
    ~finally:(fun () -> Writer.close t)
    (fun () -> List.iter (Writer.add_entry t) entries);
  List.length entries

(* --- reading ------------------------------------------------------------- *)

type filter = {
  from_time : Cycles.t option;
  to_time : Cycles.t option;
  kinds : int list option;
  partition : int option;
}

let no_filter =
  { from_time = None; to_time = None; kinds = None; partition = None }

let store_filter filter =
  {
    Tracestore.t_min = filter.from_time;
    t_max = filter.to_time;
    kind_mask =
      Option.map
        (List.fold_left (fun m k -> m lor (1 lsl k)) 0)
        filter.kinds;
    (* A block can satisfy the partition filter through the partition
       itself or through unattributable events (which the filter keeps). *)
    pmask =
      Option.map
        (fun p -> partition_mask p lor (1 lsl unattributed_bit))
        filter.partition;
  }

let scan ?(filter = no_filter) ?line_partition path ~f =
  match filter.partition with
  | None -> Tracestore.scan ~filter:(store_filter filter) path ~f
  | Some p ->
      Tracestore.scan ~filter:(store_filter filter) path
        ~f:(fun ~time ~kind ~a ~b ~c ~d ->
          if row_partition_matches ~line_partition ~p ~kind ~a ~b then
            f ~time ~kind ~a ~b ~c ~d)

let read_entries ?filter ?line_partition path =
  match
    let acc = ref [] in
    let _stats =
      scan ?filter ?line_partition path ~f:(fun ~time ~kind ~a ~b ~c ~d ->
          acc :=
            { Hyp_trace.time; event = decode_event ~kind ~a ~b ~c ~d } :: !acc)
    in
    List.rev !acc
  with
  | entries -> Ok entries
  | exception Tracestore.Corrupt msg -> Error msg
  | exception Sys_error msg -> Error msg
