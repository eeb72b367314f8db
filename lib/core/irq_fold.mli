(** The per-IRQ fold over the trace rows.

    The simulator reports each interrupt instance only as {!Hyp_trace}
    rows.  This fold turns them back into one {!span} per completed IRQ:
    the timestamps of the paper's latency decomposition (eq. 2) and the
    handling class of Figure 4.  It holds the only event-side classifier:
    the {!Hyp_trace.Monitor_decision} verdict when the IRQ has one
    (admitted: interposed, denied: delayed, fallback: direct); otherwise
    the slot owner when its top handler ran, compared with the partition
    that completes it (direct when equal, delayed when not).

    The same entry point, {!row}, runs live on a trace's spill hook
    ({!attach}) and over a store scan.  In-flight state is one row of ints
    per live IRQ, in a table sized by the IRQs in flight.  The metrics,
    attribution, SLO and query consumers all read these spans. *)

type span = {
  irq : int;
  line : int;
  source : string;
      (** The line's source in the configuration, or ["line<N>"]. *)
  partition : int;  (** The completing partition: the line's subscriber. *)
  cls : Irq_record.classification option;
      (** [None] when the events that fix the class fell outside the folded
          window (a time-filtered or truncated store). *)
  arrival : Rthv_engine.Cycles.t;
  top_start : Rthv_engine.Cycles.t;
      (** The top handler's end minus the line's C_TH, exactly: hypervisor
          work is a FIFO whose head runs to completion.  Equals [top_end]
          without a configuration. *)
  top_end : Rthv_engine.Cycles.t;
  decision : Rthv_engine.Cycles.t;
      (** The monitor verdict's time, or [top_end] when there is none. *)
  bh_start : Rthv_engine.Cycles.t;
      (** First bottom-half cycle; the completion if the fold missed it. *)
  completion : Rthv_engine.Cycles.t;
}

val class_name : Irq_record.classification option -> string
(** ["direct"], ["interposed"], ["delayed"], or ["unknown"] for [None]. *)

val latency_us : span -> float
(** [Cycles.to_us (completion - arrival)]: the paper's IRQ latency. *)

val all_component_names : string list
(** Every latency component in causal order; the dispatch waits
    [queue_wait] (direct), [slot_wait] (delayed) and [interposed_wait]
    exclude each other within a span. *)

val components : span -> (string * float) list
(** The span's five components in causal order: differences of
    consecutive timestamps, each converted to microseconds first. *)

type t

val create : ?config:Config.t -> (span -> unit) -> t
(** A fold calling [on_span] per completed IRQ, in completion order.
    [config] names the sources and gives each line's C_TH. *)

val row : t -> Hyp_trace.row_fn
(** Fold one row: a {!Hyp_trace.set_row_spill} hook and a
    {!Trace_store.scan} callback. *)

val latency_kinds : int list
(** The store kinds that fix each span's class, arrival, top-handler end,
    decision and completion; a scan of only these misses [bh_start]. *)

val attach : ?config:Config.t -> Hyp_trace.t -> (span -> unit) -> unit
(** {!create} a fold and add its {!row} to the trace's spill hooks. *)
