(** The delta^- monitoring / shaping mechanism of Section 5.

    The modified top handler (Figure 4b) consults this monitor whenever an
    IRQ arrives during a foreign TDMA slot.  The monitor admits the
    activation for {e interposed} handling only if its distance to the last
    [l] {e admitted} activations satisfies the monitoring condition
    delta^-_Ip[l]; otherwise the IRQ falls back to delayed handling.
    Because only admitted activations enter the history, the admitted stream
    conforms to the condition by construction, which is exactly what makes
    the interference bound of equation (14) hold.

    Two flavours exist:
    - a {b fixed} monitor configured with a distance function up front
      (Section 5 uses l = 1 with a single d_min);
    - a {b self-learning} monitor (Appendix A): the first [learn_events]
      activations only train Algorithm 1 (no interposition is admitted),
      then the learned function — adjusted to an optional upper load bound
      via Algorithm 2 — becomes the condition for the run phase. *)

type t

type phase =
  | Learning of int  (** Activations still needed before the run phase. *)
  | Running

val fixed : Rthv_analysis.Distance_fn.t -> t
(** Monitor with a predefined condition; starts in the run phase. *)

val d_min : Rthv_engine.Cycles.t -> t
(** The paper's l = 1 monitor. *)

val self_learning :
  l:int -> learn_events:int -> ?bound:Rthv_analysis.Distance_fn.t -> unit -> t
(** Appendix-A monitor.  [bound], when given, caps the admitted load
    (Algorithm 2); it must have length [l].
    @raise Invalid_argument on [l <= 0], [learn_events < 0] or a length
    mismatch. *)

val phase : t -> phase

val note_arrival : t -> Rthv_engine.Cycles.t -> unit
(** Record an activation of the monitored source (called for {e every} IRQ of
    the source, from the top handler).  Drives the learning phase; a no-op
    for fixed monitors and in the run phase. *)

val conforms : t -> Rthv_engine.Cycles.t -> bool
(** [conforms t ts]: would an interposition for an activation at [ts] be
    admitted now?  [false] during the learning phase.  Read-only and
    allocation-free — the per-IRQ hot path: the admitted history is an
    unboxed ring buffer, so the l distance comparisons touch no heap. *)

val earliest : t -> Rthv_engine.Cycles.t -> Rthv_engine.Cycles.t
(** The least time [>= ts] that {!conforms}, [max_int] while learning.
    Uncounted; [ts] must not precede the newest admission. *)

val check : t -> Rthv_engine.Cycles.t -> bool
(** {!conforms}, counted: increments {!checked_count}, modelling one paid
    execution of the monitoring function (C_Mon on the real system).  The
    hypervisor's top handler calls this; code that merely inspects the
    monitor should call {!conforms}. *)

val admit : t -> Rthv_engine.Cycles.t -> unit
(** Commit an admission: push [ts] into the admitted ring buffer (O(1),
    overwriting the oldest of the l remembered admissions).
    @raise Invalid_argument if {!conforms} is false (callers must check
    first — the hypervisor's top handler does). *)

val condition : t -> Rthv_analysis.Distance_fn.t option
(** The active monitoring condition: [None] while still learning. *)

val admitted_count : t -> int

val checked_count : t -> int
(** Number of [check] calls — the number of monitor-function executions,
    each costing C_Mon on the real system. *)
