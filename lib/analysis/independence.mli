(** Temporal isolation vs sufficient temporal independence — equations (1),
    (2) and (14) of the paper.

    A partition p with interferer set I_p suffers interference I_p.  Complete
    temporal isolation demands I_p = 0 (equation (1)); sufficient temporal
    independence, as required by IEC 61508-class standards, allows a bounded
    interference I_p <= b_Ip (equation (2)).  Interposed interrupt handling
    under a delta^- monitor yields the interference bound of equation (14):
    in any window dt, at most eta^+_monitor(dt) bottom handlers of effective
    cost C'_BH execute inside foreign slots. *)

type interference_curve = Rthv_engine.Cycles.t -> Rthv_engine.Cycles.t
(** Maps a window size to a worst-case interference within that window. *)

val isolated : interference_curve
(** Equation (1): zero interference. *)

val interposed_bound :
  monitor:Distance_fn.t -> c_bh_eff:Rthv_engine.Cycles.t -> interference_curve
(** Equation (14), generalised to an l-entry monitoring condition:
    [fun dt -> eta^+_monitor(dt) * C'_BH].  For the l=1 [d_min] monitor this
    is exactly [ceil(dt / d_min) * C'_BH].  Like every curve here it
    saturates at [max_int] ({!Rthv_engine.Cycles.mul_sat}). *)

val d_min_bound :
  d_min:Rthv_engine.Cycles.t ->
  c_bh_eff:Rthv_engine.Cycles.t ->
  interference_curve
(** Equation (14) verbatim. *)

val token_bucket_bound :
  capacity:int ->
  refill:Rthv_engine.Cycles.t ->
  c_bh_eff:Rthv_engine.Cycles.t ->
  interference_curve
(** Affine bound for the token-bucket throttle baseline: any window dt
    admits at most [capacity + dt/refill] interpositions.  At equal
    long-term rate this dominates the d_min bound whenever capacity > 1 —
    the burst allowance is exactly the extra interference a partition must
    absorb. *)

val budget_bound :
  per_cycle:int ->
  cycle:Rthv_engine.Cycles.t ->
  c_bh_eff:Rthv_engine.Cycles.t ->
  interference_curve
(** Interference bound for a per-cycle interposition budget: admissions are
    counted in aligned windows of length [cycle] and capped at [per_cycle]
    per window, so any half-open interval of length dt overlaps at most
    [floor((dt-1)/cycle) + 2] windows and admits at most [per_cycle] times
    that many interpositions.  Affine like the token-bucket curve; the
    window-straddling factor 2 is the burst a partition must absorb when a
    full budget at the end of one window abuts a full budget at the start of
    the next.  @raise Invalid_argument unless [per_cycle >= 1] and
    [cycle >= 1]. *)

val sum : interference_curve list -> interference_curve
(** Total interference from several independent interposing sources,
    saturating at [max_int]. *)

val is_sufficient :
  interference:interference_curve ->
  budget:interference_curve ->
  windows:Rthv_engine.Cycles.t list ->
  bool
(** Equation (2) checked on a list of window sizes: interference within
    budget everywhere. *)

val utilisation_loss :
  monitor:Distance_fn.t -> c_bh_eff:Rthv_engine.Cycles.t -> float
(** Long-term fraction of processor time stolen by interposed handlers:
    [rate(monitor) * C'_BH].  The system designer's headline number when
    granting a d_min. *)

val max_slot_loss :
  monitor:Distance_fn.t ->
  c_bh_eff:Rthv_engine.Cycles.t ->
  slot:Rthv_engine.Cycles.t ->
  Rthv_engine.Cycles.t
(** Worst-case time stolen from a single slot of the given length — what a
    partition's own schedulability analysis must absorb as b_Ip. *)

val required_d_min :
  c_bh_eff:Rthv_engine.Cycles.t ->
  max_utilisation:float ->
  Rthv_engine.Cycles.t
(** Smallest d_min such that the long-term utilisation loss stays at or below
    [max_utilisation].  @raise Invalid_argument if [max_utilisation <= 0]. *)
