(** Sufficient-temporal-independence certificate.

    Packages the paper's certification argument into one checkable object:
    given the TDMA schedule, each partition's task set, and the set of
    interposition grants (monitored IRQ sources with their effective
    bottom-handler costs), verify for {e every} partition that

    + the interference it can suffer from all granted sources together is
      bounded (equation (14), summed, plus one carry-in), and
    + its task set remains schedulable under that bound (equation (2) with
      b_Ip instantiated, checked through {!Guest_sched}).

    The result is a per-partition verdict with the numbers a reviewer needs;
    [holds] is the conjunction.  This is what an ARINC653-style integrator
    would attach to a change request that enables interposition. *)

type grant = {
  source_name : string;
  monitor : Distance_fn.t;  (** The monitoring condition enforced. *)
  c_bh_eff : Rthv_engine.Cycles.t;  (** Equation (13) for that source. *)
  subscriber : int;  (** Interpositions never steal from the subscriber's
                         own slot budget in this model, but its top handlers
                         still run; the subscriber is reported, not
                         special-cased. *)
}

type partition_input = {
  p_index : int;
  p_name : string;
  slot : Rthv_engine.Cycles.t;
  tasks : Guest_sched.task list;
}

type verdict = {
  v_index : int;
  v_name : string;
  interference_budget : Rthv_engine.Cycles.t;
      (** b_Ip: worst interference in one slot window (sum of grants'
          eq.-(14) curves over the slot, plus one carry-in).  [max_int]
          when that sum is past [max_int] cycles: the partition is then
          not schedulable, and its tasks are not analysed. *)
  utilisation_loss : float;
      (** Long-term processor share taken by the grants. *)
  task_results : (Guest_sched.task * (Busy_window.result, string) result) list;
  schedulable : bool;
}

type t = {
  cycle : Rthv_engine.Cycles.t;
  c_ctx : Rthv_engine.Cycles.t;
  grants : grant list;
  verdicts : verdict list;
  holds : bool;  (** Every partition schedulable under its budget. *)
}

val check :
  cycle:Rthv_engine.Cycles.t ->
  c_ctx:Rthv_engine.Cycles.t ->
  partitions:partition_input list ->
  grants:grant list ->
  t
(** Analyse every partition against the sum of all grants.  Each partition
    is analysed with its slot shortened by [c_ctx] (the slot-entry switch)
    and a blocking term of one largest [c_bh_eff] (carry-in). *)

val analyse_curves :
  cycle:Rthv_engine.Cycles.t ->
  c_ctx:Rthv_engine.Cycles.t ->
  partitions:partition_input list ->
  interference:Independence.interference_curve ->
  carry_in:Rthv_engine.Cycles.t ->
  utilisation_loss:float ->
  verdict list
(** The certification core behind {!check}, generalised from δ⁻ grants to an
    arbitrary summed interference curve — the entry point for policies whose
    admitted stream carries no distance condition (token buckets, per-cycle
    budgets, composites): pass the pointwise sum of their eq.-(14)-style
    curves ({!Rthv_analysis.Bound.interference}) plus one carry-in.  [check]
    is exactly [analyse_curves] applied to the grants' summed eq.-(14)
    curves; the abstract interpreter ([Rthv_check.Absint]) calls this with
    every shaped source's curve to close the bucket/budget blind spot of the
    grant-only certificate. *)

val pp : Format.formatter -> t -> unit
(** Human-readable certificate. *)
