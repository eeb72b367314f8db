(** Hypervisor event trace.

    A bounded ring buffer of timestamped scheduling events, the moral
    equivalent of the trace buffer a real hypervisor exposes for
    certification evidence and debugging.  Recording is amortised O(1);
    when the buffer is full the oldest entries are dropped (and counted). *)

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
          {!Config.Absolute} arrival mode).  Previously just a counter in
          {!Hyp_sim.stats}; as an event the loss is visible on the timeline
          and in the exporters. *)

type entry = { time : Rthv_engine.Cycles.t; event : event }

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 65536) is the most entries the ring retains, not
    an allocation: the ring starts with a small block and its memory grows
    with the entries recorded, doubling until it holds [capacity] entries.
    A short run in a ring sized for the longest one pays only for what it
    records.  @raise Invalid_argument if non-positive. *)

val capacity : t -> int
(** The retention bound passed to {!create}. *)

val record : t -> time:Rthv_engine.Cycles.t -> event -> unit
(** Amortised O(1): the ring stores the timestamp and the caller-allocated
    event value in parallel arrays.  While fewer than [capacity] entries
    have been recorded, reaching the end of the arrays doubles them; once
    the ring is full it is allocation-free and a record costs two stores
    and one compare (this is the flight-recorder property — tracing can
    stay on for every run).  When a {!set_spill} hook is installed it is
    invoked after the store, adding one field load and a branch to the
    unhooked path. *)

val set_spill : t -> (time:Rthv_engine.Cycles.t -> event -> unit) -> unit
(** Add a per-record spill hook: every {!record} also hands the entry to
    [f] before the ring can overwrite it.  This is how a bounded ring
    streams an unbounded run into {!Trace_store.Writer} — the ring keeps
    its flight-recorder tail, the hook keeps the full history — and how
    the {!Irq_fold} consumers read a live run.  Hooks accumulate and run
    in the order they were added.  A hook must not record into the same
    trace. *)

val length : t -> int
(** Entries currently retained. *)

val recorded : t -> int
(** Total events ever recorded (retained + dropped). *)

val dropped : t -> int

val to_list : t -> entry list
(** Oldest retained entry first. *)

val iter : t -> (entry -> unit) -> unit
(** Retained entries, oldest first, read from the ring in place: no list
    is built. *)

val pp_event : Format.formatter -> event -> unit

val pp_entry : Format.formatter -> entry -> unit

val pp : Format.formatter -> t -> unit
(** Render the retained timeline, one entry per line. *)
