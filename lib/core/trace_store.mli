(** Binary trace store of hypervisor events.

    The {!Hyp_trace} row schema over the generic columnar container
    {!Rthv_obs.Tracestore} ([rthv-tracestore/1]): a store row is the
    ring's row [(time, kind, a, b, c, d)], with the kind ids, arities and
    names {!Hyp_trace} declares, so a store round-trips losslessly with the
    JSONL exporter ({!Trace_export}) while costing a few byte stores
    instead of a JSON object per event.  {!Writer.add_row} and {!scan} speak rows;
    the typed {!Writer.add}, {!Writer.add_entry} and {!read_entries} remain
    because the end-to-end benchmark calls them, and go through the
    {!Hyp_trace} codec.

    The per-block partition bitmap uses bits [0..60] for directly-named
    partitions, bit 61 for any partition >= 61, and bit 62 for events that
    name no partition (line-keyed or global events).  A partition filter
    keeps unattributable events, mirroring [rthv_trace --partition]. *)

val row_partition :
  line_partition:(int -> int option) option ->
  kind:int ->
  a:int ->
  b:int ->
  int ->
  int
(** [row_partition ~kind ~a ~b i] is the [i]-th (0 or 1) partition a row
    names, from its kind and first two columns, or -1: a slot switch names
    two, a line-keyed row its line's subscriber through [line_partition]
    (none without it, or for an unmapped line), any other row one.  The
    only partition rule: the block index, the partition filter, the
    partition query and the Chrome export's tracks all read it. *)

val row_partition_matches :
  line_partition:(int -> int option) option ->
  p:int ->
  kind:int ->
  a:int ->
  b:int ->
  bool
(** The partition rule of [rthv_trace --partition] and of {!scan}'s
    [filter.partition]: the row names partition [p], or names none. *)

(** {2 Writing} *)

module Writer : sig
  type t

  val create : ?block_events:int -> string -> t
  (** Open [path] and stream rows into it; blocks flush automatically. *)

  val add_row : t -> Hyp_trace.row_fn
  (** Append one row; its partition bits come from {!row_partition}.  A
      {!Hyp_trace.set_row_spill} hook for live runs. *)

  val add : t -> time:Rthv_engine.Cycles.t -> Hyp_trace.event -> unit
  (** {!Hyp_trace.encode} into a reused row, then {!add_row}: allocates
      nothing. *)

  val add_entry : t -> Hyp_trace.entry -> unit
  val events_written : t -> int

  val close : t -> unit
  (** Flush the final partial block and close the file.  Idempotent. *)
end

val write_entries :
  ?block_events:int -> string -> Hyp_trace.entry list -> int
(** Write a store file from an entry list; returns the event count. *)

(** {2 Reading} *)

type filter = {
  from_time : Rthv_engine.Cycles.t option;
  to_time : Rthv_engine.Cycles.t option;
  kinds : int list option;  (** Keep only these kind ids. *)
  partition : int option;
      (** Keep events attributable to this partition — plus unattributable
          events, like the [rthv_trace] partition filter.  Events whose
          only partition handle is an IRQ line are resolved through
          [line_partition] when given, and count as unattributable
          otherwise. *)
}

val no_filter : filter

val scan :
  ?filter:filter ->
  ?line_partition:(int -> int option) ->
  string ->
  f:Hyp_trace.row_fn ->
  Rthv_obs.Tracestore.stats
(** Stream matching rows through [f] without materializing the store;
    blocks excluded by the index (time range, kind set, partition bitmap)
    are skipped unread.
    @raise Rthv_obs.Tracestore.Corrupt on malformed input. *)

val read_entries :
  ?filter:filter ->
  ?line_partition:(int -> int option) ->
  string ->
  (Hyp_trace.entry list, string) result
(** Materialize the (filtered) store as decoded entries, oldest first.
    IO and corruption errors come back as [Error msg]. *)
