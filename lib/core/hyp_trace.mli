(** Hypervisor event trace.

    A bounded ring buffer of timestamped scheduling events, the moral
    equivalent of the trace buffer a real hypervisor exposes for
    certification evidence and debugging.  Recording is amortised O(1);
    when the buffer is full the oldest entries are dropped (and counted).

    Every event is one int row [(time, kind, a, b, c, d)] from the
    simulator to the store: the simulator emits rows, the ring holds them,
    spill hooks, {!Trace_store} and every fold read them.  This module
    declares their schema once.  The typed {!event} is a decoding view
    over a row for {!pp}, the Chrome and VCD exporters and hand-built
    traces; the typed {!set_spill} and [Trace_store.Writer.add] /
    [add_entry] remain because the end-to-end benchmark calls them. *)

type event =
  | Slot_switch of { from_partition : int; to_partition : int }
  | Boundary_deferred of { owner : int; until : Rthv_engine.Cycles.t }
  | Irq_raised of { irq : int; line : int }
      (** A hardware raise entered the simulator as a fresh IRQ instance —
          the root of that instance's causal span.  Coalesced raises (see
          {!Irq_coalesced}) do not create a new instance and therefore do
          not produce this event. *)
  | Top_handler_run of { irq : int; line : int }
  | Monitor_decision of {
      irq : int;
      line : int;
      arrival : Rthv_engine.Cycles.t;
          (** The activation timestamp the monitor judged — the time the
              interrupt line fired, not the decision time.  delta^-
              conformance of the admitted stream is defined on these. *)
      verdict : [ `Admitted | `Denied | `Fallback_direct ];
          (** [`Fallback_direct]: the subscriber's own slot opened between
              the arrival and the monitoring decision, so the event is
              handled directly and the admission machinery is skipped. *)
    }
  | Interposition_start of { irq : int; target : int }
  | Interposition_end of {
      target : int;
      reason : [ `Budget_exhausted | `Queue_empty ];
    }
  | Interposition_crossed_boundary of { target : int }
  | Bottom_handler_start of { irq : int; partition : int }
      (** First cycle of the instance's bottom-half execution (inside the
          subscriber's slot or an interposition window).  Together with
          {!Bottom_handler_done} this brackets the bottom-handler slice of
          the span. *)
  | Bottom_handler_done of { irq : int; partition : int }
  | Irq_coalesced of { line : int }
      (** A raise hit a line whose non-counting pending flag was already
          set: the activation is lost to the earlier one (only possible in
          {!Config.Absolute} arrival mode).  As an event the loss is
          visible on the timeline and in the exporters. *)

type entry = { time : Rthv_engine.Cycles.t; event : event }

(** {2 The row schema} *)

(** A row's kind; its id is its position (append-only).  Its columns
    [a..d] are the typed event's fields in order, verdict and reason as
    their codes, unused columns 0. *)
module Kind : sig
  type t =
    | Slot_switch
    | Boundary_deferred
    | Irq_raised
    | Top_handler_run
    | Monitor_decision
    | Interposition_start
    | Interposition_end
    | Interposition_crossed_boundary
    | Bottom_handler_start
    | Bottom_handler_done
    | Irq_coalesced
end

val n_kinds : int
val kind_id : Kind.t -> int

val kind_of_id : int -> Kind.t
(** The decoders ([*_of_*]) raise [Rthv_obs.Tracestore.Corrupt] on an
    id or code outside the schema. *)

val kind_name : int -> string
(** The JSONL ["ev"] name of a kind id ("slot_switch", "irq_raised", ...). *)

val kind_of_name : string -> int option
val kind_names : string list
val arities : int array

(** A column's JSONL key; a coded column also names what its codes mean
    and spells each code. *)
type column =
  | Int of string
  | Enum of { key : string; what : string; names : string array }

val columns : int -> column array
(** A kind id's argument columns [a..d], [arities.(kind)] of them. *)

val verdict_code : [ `Admitted | `Denied | `Fallback_direct ] -> int
val verdict_of_code : int -> [ `Admitted | `Denied | `Fallback_direct ]
val verdict_names : string array
val reason_code : [ `Budget_exhausted | `Queue_empty ] -> int
val reason_of_code : int -> [ `Budget_exhausted | `Queue_empty ]
val reason_names : string array

val encode : int array -> int -> time:Rthv_engine.Cycles.t -> event -> unit
(** [encode dst i ~time ev] writes the row of [ev] into [dst.(i .. i+5)],
    allocating nothing: the one encoder. *)

val decode : kind:int -> a:int -> b:int -> c:int -> d:int -> event
(** The one decoder: the typed view of a row. *)

(** {2 The ring} *)

type t

type row_fn =
  time:Rthv_engine.Cycles.t -> kind:int -> a:int -> b:int -> c:int -> d:int ->
  unit
(** A spill hook, a {!Trace_store.scan} callback and a fold's entry. *)

val create : ?capacity:int -> ?dropped:int -> unit -> t
(** [capacity] (default 65536) is the most entries the ring retains, not
    an allocation: the ring starts with a small block and its memory grows
    with the entries recorded, doubling until it holds [capacity] entries.
    A short run in a ring sized for the longest one pays only for what it
    records.  [dropped] (default 0) counts entries an earlier ring dropped
    before the first one this ring will hold, as in a re-imported flight
    dump; {!recorded} and {!dropped} include them.
    @raise Invalid_argument if [capacity] is non-positive or [dropped]
    negative. *)

val capacity : t -> int
(** The retention bound passed to {!create}. *)

val record_row : t -> row_fn
(** The simulator's emission call.  Amortised O(1): the row goes into one
    int array, six ints per row.  While fewer than [capacity] entries have
    been recorded, reaching the end of the array doubles it; once the ring
    is full it is allocation-free (the flight-recorder property — tracing
    can stay on for every run).  The row then goes to the spill hooks. *)

val record : t -> time:Rthv_engine.Cycles.t -> event -> unit
(** {!encode}, then as {!record_row}. *)

val set_row_spill : t -> row_fn -> unit
(** Add a per-record spill hook: every record also hands the row to [f]
    before the ring can overwrite it.  This is how a bounded ring streams
    an unbounded run into {!Trace_store.Writer} — the ring keeps its
    flight-recorder tail, the hook keeps the full history — and how the
    folds read a live run.  Hooks accumulate and run in the order they
    were added.  A hook must not record into the same trace. *)

val set_spill : t -> (time:Rthv_engine.Cycles.t -> event -> unit) -> unit
(** {!set_row_spill} with each row {!decode}d for [f]. *)

val length : t -> int
(** Entries currently retained. *)

val recorded : t -> int
(** Total events ever recorded (retained + dropped). *)

val dropped : t -> int

val iter_rows : t -> row_fn -> unit
(** Retained rows, oldest first, read from the ring in place. *)

val iter : t -> (entry -> unit) -> unit
(** {!iter_rows}, each row decoded. *)

val to_list : t -> entry list
(** Oldest retained entry first. *)

val pp_event : Format.formatter -> event -> unit

val pp_entry : Format.formatter -> entry -> unit

val pp : Format.formatter -> t -> unit
(** Render the retained timeline, one entry per line. *)
