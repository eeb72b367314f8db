(** Interval-domain abstract interpretation of a policy-parameterized
    configuration.

    The linter's closed-form rules each evaluate one paper equation in
    isolation; this module runs the whole configuration through one ordered
    pass and produces, for every source and partition, an {e interval} of
    interference rather than a single bound:

    - the {b upper} end is the proved eq.-(14)-style bound of the source's
      admission policy ({!Rthv_analysis.Bound.interference}), [None] when no
      bound exists (unshaped-opaque or degenerate conditions);
    - the {b lower} end is the {e achievable} interference realised by the
      greedy earliest-conforming adversarial schedule
      ({!adversarial_schedule}, ROADMAP item 4's back-to-back δ⁻-conforming
      burst) under the hypervisor's serialization rule (at most one
      interposition in flight, so consecutive admissions are at least one
      {!footprint} apart).

    A refutation derived from the lower end is {e witnessable} — the
    schedule that produced it replays through {!Rthv_core.Hyp_sim}
    ({!Witness}); a certification derived from the upper end is
    {e proof-carrying} — the certificate artifact re-derives it without
    re-running the analysis ({!Certify}).

    The facts depend on each other in two layers only, so one pass in
    dependency order computes each exactly once: every source's facts from
    its own declaration; then each source's eq.-(16) gate, which reads
    whether any {e other} source can interpose; then the grant-only and the
    interval certificates; then each partition's facts and verdict, which
    fold the sources' intervals and the certificates, and the system
    utilisation interval.  Interval sums saturate at [max_int]
    ({!Rthv_engine.Cycles.add_sat}).

    The shared policy primitives ([c_bh_eff], [bound_policy], …) live here:
    {!Lint}, {!Trace_oracle}, {!Headroom} and {!Witness} all read them from
    this module. *)

module Itv : sig
  (** Closed integer intervals [\[lo, hi\]] with [hi = None] meaning
      unbounded above.  [lo] is an achievability claim (a witness can
      realise at least this much), [hi] a soundness claim (no run exceeds
      it); [lo <= hi] is the analyzer's internal consistency invariant that
      [Certify.recheck] re-validates. *)

  type t = { lo : int; hi : int option }

  val consistent : t -> bool
  (** [lo >= 0] and [lo <= hi] when bounded. *)
end

type verdict = Proved | Refuted | Unknown

val verdict_name : verdict -> string

type source_fact = {
  sf_name : string;
  sf_line : int;
  sf_subscriber : int;
  sf_policy : Rthv_analysis.Bound.policy;
  sf_c_bh_eff : Rthv_engine.Cycles.t;  (** Equation (13). *)
  sf_footprint : Rthv_engine.Cycles.t;
      (** Serialized cost of one admitted interposition,
          [C_TH + C_Mon + C'_BH]. *)
  sf_degenerate : bool;
      (** The static condition exists but admits unbounded load. *)
  sf_active : bool;
      (** The source can interpose at all: shaped, and its workload fires. *)
  sf_per_instance : bool;
      (** The eq.-(16) per-instance gate holds: the policy has a
          per-instance condition {e and} no other active source interposes
          (the sole-interposer assumption, RTHV016). *)
  sf_admissions : (Rthv_engine.Cycles.t * Itv.t) list;
      (** Per analysis window: interval of admitted interpositions. *)
  sf_interference : (Rthv_engine.Cycles.t * Itv.t) list;
      (** Per analysis window: interval of stolen time (eq. 14). *)
  sf_ceiling : (Rthv_engine.Cycles.t * int) list;
      (** Per analysis window: the serialization ceiling — more completions
          than this cannot physically fit (RTHV019's slack detector). *)
  sf_util_loss : float option;
      (** Long-term utilisation loss claimed by the closed-form rules
          (RTHV004's per-source term); [None] when unbounded/degenerate. *)
  sf_workload_max_per_cycle : int option;
      (** Densest aligned-cycle arrival count of the pre-generated workload
          (RTHV015's envelope); [None] when the source never fires. *)
}

type partition_fact = {
  pf_index : int;
  pf_name : string;
  pf_declared : Rthv_engine.Cycles.t;  (** The partition record's slot. *)
  pf_slot : Rthv_engine.Cycles.t;  (** Effective slot actually scheduled. *)
  pf_share : float;
      (** TDMA supply share [(slot - C_ctx) / T_TDMA], 0 when the slot
          cannot cover the entry switch. *)
  pf_task_util : float;
  pf_demand : float;
      (** Task utilisation plus the sustained bottom-half demand of the
          sources subscribed to this partition (RTHV020). *)
  pf_interference : Itv.t;
      (** Foreign-source interference interval in one slot window. *)
  pf_verdict : verdict;
      (** [Proved] iff the all-curves certificate holds and every
          interferer is bounded; [Refuted] on a demand or certificate
          refutation; [Unknown] when an unbounded interferer blocks both. *)
}

type t = {
  cycle : Rthv_engine.Cycles.t;
  c_ctx : Rthv_engine.Cycles.t;
  windows : Rthv_engine.Cycles.t list;
      (** The analysis windows: every distinct effective slot plus the
          cycle, ascending — the same set the trace oracle's RTHV104
          audits. *)
  sources : source_fact list;  (** In configuration order. *)
  partitions : partition_fact list;  (** In TDMA order. *)
  util_loss_closed : float;
      (** The closed-form total of RTHV004 — byte-compatible with the
          pre-Absint rule. *)
  util : float * float option;
      (** Achievable/proved interval of total interference utilisation. *)
  closed : Rthv_analysis.Certificate.t;
      (** The grant-only certificate (RTHV005's proof obligation). *)
  full_verdicts : Rthv_analysis.Certificate.verdict list option;
      (** The interval certificate: every active source's policy curve
          summed ({!Rthv_analysis.Certificate.analyse_curves}); [None] when
          an active source has no curve (nothing can be proved). *)
}

val analyze : Rthv_core.Config.t -> t
(** Run the pass: source facts, gates, certificates, partition facts and
    utilisation, in that order.  The configuration must pass
    [Config.validate] (the linter's RTHV001 short-circuits before calling
    this). *)

(** {2 Shared policy primitives} *)

val c_bh_eff :
  platform:Rthv_hw.Platform.t -> c_bh:Rthv_engine.Cycles.t -> Rthv_engine.Cycles.t
(** Equation (13): [C'_BH = C_BH + C_sched + 2*C_ctx] for the platform. *)

val footprint :
  platform:Rthv_hw.Platform.t ->
  c_th:Rthv_engine.Cycles.t ->
  c_bh_eff:Rthv_engine.Cycles.t ->
  Rthv_engine.Cycles.t
(** [C_TH + C_Mon + C'_BH]: the serialized wall-clock cost of one admitted
    interposition, i.e. the minimum spacing at which back-to-back
    activations are all admitted despite the
    at-most-one-interposition-in-flight rule.  Used as the adversarial
    schedule's [min_gap] and as RTHV019's physical ceiling. *)

val shaped : Rthv_core.Config.source -> bool
(** The source uses the modified top handler or the throttle baseline. *)

val bound_policy :
  cycle:Rthv_engine.Cycles.t ->
  Rthv_core.Config.shaping ->
  Rthv_analysis.Bound.policy
(** The analysis-side descriptor of a shaping policy — the single mapping
    from configuration variants onto {!Rthv_analysis.Bound.policy}, shared
    by {!Lint}, {!Trace_oracle} and {!Headroom}.  [cycle] (the TDMA cycle
    length) parameterizes budgeted policies. *)

val adversarial_schedule :
  policy:Rthv_analysis.Bound.policy ->
  footprint:Rthv_engine.Cycles.t ->
  horizon:Rthv_engine.Cycles.t ->
  Rthv_engine.Cycles.t list
(** Greedy earliest arrival times (ascending, starting at 1) admitted by the
    policy when spaced at least [footprint] apart, up to [horizon].  Returns
    [[]] for policies that never interpose ([Unshaped]) or whose admission
    cannot be predicted ([Shaped_opaque]).  This is the witness
    synthesizer's arrival source and the lower-interval generator: every
    returned time is an admission the simulator will actually grant.

    A schedule of [n] arrivals costs O(n) steps of O(1) each (O(l) for a
    monitor with [l] entries; a composite settles its components in a
    bounded loop), at most 4096 arrivals: the policy's admission state is
    advanced by one admission per arrival instead of being replayed from
    the whole admitted history at every step, which is exact because every
    step comes after the latest admission. *)
