(** Binary trace store of hypervisor events.

    The {!Hyp_trace.event} codec over the generic columnar container
    {!Rthv_obs.Tracestore} ([rthv-tracestore/1]): each event maps to a
    fixed kind id plus up to four integer argument columns, so a store
    round-trips losslessly with the JSONL exporter ({!Trace_export}) while
    costing array stores instead of a JSON object per event.  Kind ids and
    names match the JSONL ["ev"] vocabulary, so CLI filters work unchanged
    across both formats.

    The per-block partition bitmap uses bits [0..60] for directly-named
    partitions, bit 61 for any partition >= 61, and bit 62 for events that
    name no partition (line-keyed or global events).  A partition filter
    keeps unattributable events, mirroring [rthv_trace --partition]. *)

val schema : string
(** ["rthv-tracestore/1"]. *)

val n_kinds : int
val arities : int array

val kind_of_event : Hyp_trace.event -> int

val kind_name : int -> string
(** The JSONL ["ev"] name of a kind id ("slot_switch", "irq_raised", ...). *)

val kind_of_name : string -> int option
val kind_names : string list
(** All kind names in kind-id order. *)

val encode_event : Hyp_trace.event -> int * int * int * int
(** The argument columns (a, b, c, d) of an event; unused columns are 0. *)

val verdict_code : [ `Admitted | `Denied | `Fallback_direct ] -> int
(** A monitor decision's column [d]: 0, 1 and 2 in that order. *)

val decode_event : kind:int -> a:int -> b:int -> c:int -> d:int -> Hyp_trace.event
(** @raise Rthv_obs.Tracestore.Corrupt on an out-of-range kind or enum. *)

val overflow_partition_bit : int
val unattributed_bit : int
val partition_mask : int -> int
(** The index-bitmap bit for one partition id. *)

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
    (none without it, or for an unmapped line), any other row one. *)

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
  (** Open [path] and stream events into it; blocks flush automatically.
      Suitable as a {!Hyp_trace.set_spill} hook target for live runs. *)

  val add : t -> time:Rthv_engine.Cycles.t -> Hyp_trace.event -> unit
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
  f:(time:Rthv_engine.Cycles.t -> kind:int -> a:int -> b:int -> c:int -> d:int -> unit) ->
  Rthv_obs.Tracestore.stats
(** Stream matching events through [f] without materializing the store;
    blocks excluded by the index (time range, kind set, partition bitmap)
    are skipped unread.
    @raise Rthv_obs.Tracestore.Corrupt on malformed input. *)

val read_entries :
  ?filter:filter ->
  ?line_partition:(int -> int option) ->
  string ->
  (Hyp_trace.entry list, string) result
(** Materialize the (filtered) store as entries, oldest first — the bridge
    back into {!Trace_export} and the oracle.  IO and corruption errors
    come back as [Error msg]. *)
