(** Canonical example configurations.

    One source of truth for the configurations the examples, the
    [rthv_lint] CLI and the tests share: the quickstart two-partition
    system, the ARINC653-style avionics scenario, the Appendix-A automotive
    self-learning scenario, and a deliberately broken configuration that
    demonstrates the static rules. *)

val quickstart_d_min : Rthv_engine.Cycles.t
(** The quickstart's granted d_min (2 ms), also the workload mean. *)

val quickstart : ?monitored:bool -> unit -> Rthv_core.Config.t
(** Two 5 ms partitions; partition "io" subscribes a NIC source with
    exponential arrivals.  [monitored] (default true) selects the d_min
    monitor over the unshaped baseline. *)

val avionics_datalink_bh_us : int
(** The datalink bottom handler's WCET in microseconds (60 µs). *)

val avionics_c_bh_eff : unit -> Rthv_engine.Cycles.t
(** Eq. (13) effective cost of one admitted datalink interposition on the
    ARM926ej-s platform ({!Absint.c_bh_eff}). *)

val avionics_d_min : unit -> Rthv_engine.Cycles.t
(** The datalink's granted d_min, sized by
    {!Rthv_analysis.Independence.required_d_min} for a 3 % ceiling. *)

val avionics_ima : unit -> Rthv_core.Config.t
(** Four partitions of mixed criticality with guest task sets; a delayed
    sensor bus and a monitored datalink. *)

type automotive = {
  auto_config : Rthv_core.Config.t;
  auto_learn_events : int;
  auto_recorded : Rthv_analysis.Distance_fn.t;
      (** Envelope recorded offline from the learning prefix. *)
  auto_bound : Rthv_analysis.Distance_fn.t;
      (** The 25 % load cap handed to Algorithm 2. *)
}

val automotive_parts : unit -> automotive
(** The Appendix-A scenario with its learning artefacts exposed (the
    example prints them). *)

val automotive_ecu : unit -> Rthv_core.Config.t
(** [(automotive_parts ()).auto_config]. *)

val conformant : unit -> Rthv_core.Config.t
(** The paper's conforming workload (Section 6.1, scenario 2): the
    quickstart topology with exponential interarrivals clamped from below
    to the granted d_min, so every activation satisfies the monitoring
    condition and the eq.-(16) bound applies per interposed instance. *)

val mixed_policies_d_min : Rthv_engine.Cycles.t
(** The camera source's granted d_min in {!mixed_policies} (2 ms). *)

val mixed_policies : unit -> Rthv_core.Config.t
(** The policy-core extensions in one configuration: a weighted slot plan
    (3:3:1 over a 14 ms cycle), a composite monitor-AND-bucket source with
    a provably vacuous bucket, and a per-cycle interposition-budget
    source. *)

val demo_bad : unit -> Rthv_core.Config.t
(** A structurally valid configuration built to trip the closed-form
    static rules — the linter's demonstration input.  The authoritative
    list of rules it fires is derived by running {!Lint.analyze}, not
    maintained here; the tests pin it that way. *)

val demo_policy_bad : unit -> Rthv_core.Config.t
(** A configuration that is clean under the grant-only closed forms but
    refuted by the interval analysis over the full policy set: a weighted
    plan starving a subscriber (RTHV017), a per-cycle budget swallowing
    foreign slots (RTHV013), and a task set that passes the grant-only
    certificate yet fails the policy-curve budget (RTHV018). *)

val good : (string * (unit -> Rthv_core.Config.t)) list
(** [("quickstart", _); ("conformant", _); ("avionics_ima", _);
    ("automotive_ecu", _); ("mixed_policies", _)] — the scenarios expected
    to lint clean of errors. *)

val bad : (string * (unit -> Rthv_core.Config.t)) list
(** [("demo_bad", _); ("demo_policy_bad", _)] — the scenarios expected to
    lint with at least one error. *)

val all : (string * (unit -> Rthv_core.Config.t)) list
(** {!good} plus {!bad}. *)

val find : string -> (unit -> Rthv_core.Config.t) option
(** Look up a scenario in {!all} by name. *)
