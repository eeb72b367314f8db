(** Pluggable admission policies for interposed handling.

    The modified top handler (Figure 4b) asks one question per foreign-slot
    IRQ: may this activation be handled {e interposed} now, or must it fall
    back to delayed handling?  This module makes the answer a first-class
    value, absorbing what used to be a closed shaper dispatch inside the
    simulator (none / δ⁻ monitor / token bucket) and adding per-source
    interposition budgets and composite AND-policies.

    A policy is a record of closures over its own mutable state — one
    instance per source, never shared.  The simulator drives it through a
    three-call protocol, all timestamps non-decreasing:

    - {!observe} on {e every} arrival of the source (training hook — the
      self-learning monitor uses it; most policies ignore it);
    - {!decide} when an interposition is possible: one {e paid} execution of
      the admission predicate (C_Mon on the real system), counted in
      {!checks};
    - {!commit} after a positive decision that the simulator acts on,
      updating admission history (monitor ring buffer, bucket token,
      budget counter).

    An {!active}-[false] policy reproduces the original Figure-4a top
    handler: the simulator skips the monitoring work entirely — no
    {!decide} call, no C_Mon cost, every foreign-slot IRQ delayed. *)

type t

val name : t -> string

val active : t -> bool
(** [false] means the source runs the unmodified top handler; the simulator
    pays no admission-check cost and never calls {!decide}. *)

val decide : t -> Rthv_engine.Cycles.t -> bool
(** One paid admission check at the given timestamp.  Counted. *)

val commit : t -> Rthv_engine.Cycles.t -> unit
(** Record that the activation decided at this timestamp was admitted.
    @raise Invalid_argument if the policy would not admit it ({!decide}
    must have returned [true] for this timestamp). *)

val observe : t -> Rthv_engine.Cycles.t -> unit
(** Note an arrival of the source (admitted or not). *)

val checks : t -> int
(** Number of paid {!decide} executions so far — each costs C_Mon on the
    real system; feeds the simulator's [monitor_checks] statistic. *)

val earliest : t -> Rthv_engine.Cycles.t -> Rthv_engine.Cycles.t
(** The earliest time at or after [ts] at which {!decide} would admit;
    [max_int] when that cannot be predicted ({!never}, {!custom}, a learning
    monitor, a composite that does not settle in 64 rounds).  Uncounted.
    Like {!decide} it brings the policy's state forward to [ts], so queries
    and commits must not go back in time (a bucket raises). *)

val monitor : t -> Monitor.t option
(** The underlying δ⁻ monitor, when the policy has one (introspection for
    learned-condition export; a composite exposes its first monitor). *)

(** {1 Constructors} *)

val never : unit -> t
(** The unmodified top handler: inactive, admits nothing. *)

val of_monitor : Monitor.t -> t
(** The paper's policy: admit iff the δ⁻ monitoring condition holds against
    the last l admitted activations. *)

val of_throttle : Throttle.t -> t
(** Related-work baseline: admit iff a token is available. *)

val custom :
  ?observe:(Rthv_engine.Cycles.t -> unit) ->
  ?monitor:Monitor.t ->
  name:string ->
  decide:(Rthv_engine.Cycles.t -> bool) ->
  commit:(Rthv_engine.Cycles.t -> unit) ->
  unit ->
  t
(** A user-defined policy from its two decisions: [decide ts] is the
    admission predicate (the paid check — counting is handled here, do not
    count in user code), [commit ts] records an admission the simulator
    acted on.  [observe] defaults to ignoring arrivals; [monitor] (when the
    policy wraps one) enables learned-condition introspection.  The policy
    is active; closures own their state — build one instance per source.
    Inject into a simulation via {!Hyp_sim.create}'s [?policies].

    The soundness obligations of the protocol are the caller's: [commit]
    must accept exactly the timestamps [decide] approved, and the admitted
    stream's interference must be bounded by {e some} analysis-side curve
    if latency guarantees are to be claimed (a policy the {!Config.shaping}
    grammar cannot express gets the unmonitored baseline bound from the
    {!Rthv_analysis.Bound} dispatch). *)

val budgeted : per_cycle:int -> cycle:Rthv_engine.Cycles.t -> t
(** Per-source interposition budget: admit at most [per_cycle] activations
    within each {e aligned} window [\[k·cycle, (k+1)·cycle)] — alignment is
    what {!Rthv_analysis.Independence.budget_bound}'s affine interference
    curve is proved against.  [cycle] is normally the TDMA cycle length.
    @raise Invalid_argument unless both arguments are >= 1. *)

val all_of : t list -> t
(** Conjunction: admit iff {e every} component admits.  Each component's
    {!decide} runs (and is counted) on every check, as the real top handler
    evaluates its whole predicate; {!commit} and {!observe} fan out to all;
    {!checks} is the sum; active iff all components are.
    @raise Invalid_argument on an empty list. *)

val monitor_and_bucket :
  fn:Rthv_analysis.Distance_fn.t ->
  capacity:int ->
  refill:Rthv_engine.Cycles.t ->
  t
(** [all_of] of a fixed δ⁻ monitor and a token bucket: the monitor provides
    the eq.-(14) interference bound, the bucket additionally caps bursts the
    condition permits. *)

val of_shaping : cycle:Rthv_engine.Cycles.t -> Config.shaping -> t
(** The policy a {!Config.shaping} describes; [cycle] (the TDMA cycle
    length) parameterizes budgeted policies.  A fresh instance per call. *)
