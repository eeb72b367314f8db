module Cycles = Rthv_engine.Cycles
module Tracestore = Rthv_obs.Tracestore
module K = Hyp_trace.Kind

(* --- partition bitmap ---------------------------------------------------- *)

let overflow_partition_bit = 61
let unattributed_bit = 62

let partition_mask p =
  if p < 0 then 1 lsl unattributed_bit
  else if p >= overflow_partition_bit then 1 lsl overflow_partition_bit
  else 1 lsl p

let line_subscriber line_partition line =
  match line_partition with
  | None -> -1
  | Some f -> ( match f line with Some q -> q | None -> -1)

(* The [i]-th (0 or 1) partition an event row names, or -1: slot switches
   name from and to, partition-keyed rows one, line-keyed rows their line's
   subscriber through the optional map.  A kind this schema does not know
   names none. *)
let[@inline] row_partition ~line_partition ~kind ~a ~b i =
  if kind < 0 || kind >= Hyp_trace.n_kinds then -1
  else
    match Hyp_trace.kind_of_id kind with
    | K.Slot_switch -> if i = 0 then a else b
    | _ when i > 0 -> -1
    | K.Boundary_deferred | K.Interposition_end
    | K.Interposition_crossed_boundary ->
        a
    | K.Interposition_start | K.Bottom_handler_start | K.Bottom_handler_done
      ->
        b
    | K.Irq_raised | K.Top_handler_run | K.Monitor_decision ->
        line_subscriber line_partition b
    | K.Irq_coalesced -> line_subscriber line_partition a

let row_partition_matches ~line_partition ~p ~kind ~a ~b =
  let first = row_partition ~line_partition ~kind ~a ~b 0 in
  let second = row_partition ~line_partition ~kind ~a ~b 1 in
  first = p || second = p || (first < 0 && second < 0)

(* --- writer -------------------------------------------------------------- *)

module Writer = struct
  type t = {
    oc : out_channel;
    w : Tracestore.Writer.t;
    row : int array;  (* the typed calls' encoded row *)
    mutable closed : bool;
  }

  let create ?block_events path =
    let oc = open_out_bin path in
    let w =
      try Tracestore.Writer.create ?block_events ~arities:Hyp_trace.arities oc
      with e ->
        close_out_noerr oc;
        raise e
    in
    { oc; w; row = Array.make 6 0; closed = false }

  (* The one partition rule, [row_partition], gives the block index its
     bits: a row naming no partition sets the unattributed bit. *)
  let add_row t ~time ~kind ~a ~b ~c ~d =
    let p0 = row_partition ~line_partition:None ~kind ~a ~b 0 in
    let p1 = row_partition ~line_partition:None ~kind ~a ~b 1 in
    let pmask =
      if p1 < 0 then partition_mask p0
      else partition_mask p0 lor partition_mask p1
    in
    Tracestore.Writer.append t.w ~time ~kind ~pmask ~a ~b ~c ~d

  (* The typed calls: the shared encoder into a reused row, then [add_row]. *)
  let add t ~time event =
    let r = t.row in
    Hyp_trace.encode r 0 ~time event;
    add_row t ~time ~kind:r.(1) ~a:r.(2) ~b:r.(3) ~c:r.(4) ~d:r.(5)

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
            { Hyp_trace.time; event = Hyp_trace.decode ~kind ~a ~b ~c ~d }
            :: !acc)
    in
    List.rev !acc
  with
  | entries -> Ok entries
  | exception Tracestore.Corrupt msg -> Error msg
  | exception Sys_error msg -> Error msg
