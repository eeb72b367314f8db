(** Pass 2 — trace-invariant oracle.

    A checker over a {!Rthv_core.Hyp_trace} row stream: given the
    configuration the trace was produced under, verify that the hypervisor's
    observable behaviour stayed inside the paper's guarantees.  The oracle is
    the runtime complement of the static analyzer — {!Lint} proves the
    configuration admits a bound, this pass proves a concrete run respected
    it.

    The oracle is one streaming fold ({!create}, {!row}, {!finish}), and
    every input goes through it: a live run on its trace's spill hook
    ({!attach}), a recorded ring ({!audit}), an entry list
    ({!audit_entries}) and a binary trace store ({!audit_store}).  Its
    state does not grow with the run beyond the delta^- history (l
    arrivals per line) and one RTHV104 charge per interposition: an IRQ's
    in-flight entry is dropped when its bottom handler completes.  So a
    live audit has no length limit.

    Invariant codes:

    - [RTHV101] trace timestamps go backwards (Error);
    - [RTHV102] an [`Admitted] monitor decision violates the configured
      delta^- condition against the previously admitted activations of the
      same line (Error) — checked for every source whose admitted stream has
      a statically known condition ([Fixed_monitor], or the load bound of a
      bounded [Self_learning] monitor, which Algorithm 2 makes at least as
      strict as the learned condition);
    - [RTHV103] an interposition executed longer than its C_BH budget:
      [(end - start)] minus the hypervisor work that preempted the window
      (top handlers, monitor runs, boundary context switches) exceeds the
      granted budget (Error);
    - [RTHV104] the completed interpositions, each charged
      [C_sched + 2*C_ctx + execution] at its admitted activation's arrival
      time, exceed the summed equation-(14) interference bound (plus one
      carry-in) in some sliding window anchored at a charge and sized by a
      partition slot or the TDMA cycle (Error) — skipped when any shaped
      source has no static bound;
    - [RTHV105] a bottom handler completed outside its subscriber's slot
      with no admitted interposition targeting the subscriber in flight
      (Error);
    - [RTHV106] structural stream violations: an interposition starting
      while another is active or without a matching admitted decision, an
      end or boundary-crossing with no (or the wrong) interposition in
      flight, events naming an unconfigured interrupt line, a slot switch
      from a partition that did not own the slot (Error);
    - [RTHV107] a recorded ring handed to {!audit} dropped entries, so no
      verdict is possible — the audit is skipped (Warning).  Only {!audit}
      reports it: the fold itself sees every event it is given;
    - [RTHV108] a bottom-handler completion without exactly one matching
      raise (Error).  The simulator numbers IRQs in raise order, so a raise
      at or below the highest raised id is a repeat, and so is a completion
      at or below it whose IRQ already completed; the checks arm at the
      first raise, since synthetic traces may record none;
    - [RTHV109] a {!service_claim} asserts a minimum of net service for a
      partition and the run measured less (Error) — the oracle-side
      refutation channel for claimed supply bounds, used by {!Witness} the
      way RTHV104 with claim curves is used for interference bounds.  Never
      fires from {!of_config} specs ([claims] is empty there).

    RTHV104 and RTHV109 are judged when the stream ends ({!finish}); the
    other codes as the events arrive, located as [trace[i] t=...] with [i]
    the event's position in the stream.  A trace that ends
    mid-interposition (horizon cut) is not an error; the unfinished window
    is simply not judged. *)

type source_spec = {
  ss_line : int;
  ss_name : string;
  ss_subscriber : int;
  ss_c_th : Rthv_engine.Cycles.t;
  ss_budget : Rthv_engine.Cycles.t;  (** C_BH: the interposition budget. *)
  ss_c_bh_eff : Rthv_engine.Cycles.t;  (** Equation (13). *)
  ss_shaped : bool;
  ss_condition : Rthv_analysis.Distance_fn.t option;
      (** Static delta^- the admitted stream must respect; [None] when the
          source is unshaped, bucket-throttled, degenerate, or learning
          without a bound. *)
  ss_bound : Rthv_analysis.Independence.interference_curve option;
      (** Static eq.-(14)-style interference curve, when one exists. *)
}

type service_claim = {
  sc_partition : int;
  sc_min_total : Rthv_engine.Cycles.t;
      (** Net service (owned span length minus the slot-entry switch, the
          hypervisor work and the bottom-half executions inside it) the
          partition must accumulate over the whole trace. *)
}

type spec = {
  partitions : int;
  slots : Rthv_engine.Cycles.t list;
  cycle : Rthv_engine.Cycles.t;
  c_mon : Rthv_engine.Cycles.t;
  c_sched : Rthv_engine.Cycles.t;
  c_ctx : Rthv_engine.Cycles.t;
  sources : source_spec list;
  claims : service_claim list;
      (** Analysis-level supply bounds to audit against the replay
          (RTHV109); empty from {!of_config}. *)
}

val of_config : Rthv_core.Config.t -> spec
(** Derive the oracle's expectations from a configuration (the same values
    {!Rthv_core.Hyp_sim} runs under).  [claims] is empty. *)

type measurement = {
  m_horizon : Rthv_engine.Cycles.t;  (** Last trace timestamp. *)
  m_service : Rthv_engine.Cycles.t array;
      (** Per-partition net service accumulated over the run. *)
  m_charges : (int option * Rthv_engine.Cycles.t * Rthv_engine.Cycles.t) list;
      (** Completed interpositions, oldest first:
          [(source line, charge time, C_sched + 2*C_ctx + execution)] — the
          exact quantities RTHV104 audits, tagged by line so witnesses can
          report the measured interference of the refuted source. *)
  m_admitted : (int * int) list;
      (** Admissions per line, ascending by line. *)
}

type t
(** One audit in progress: the fold's state over the events seen so far. *)

val create : spec -> t

val row : t -> Rthv_core.Hyp_trace.row_fn
(** Fold one row, in stream order: a {!Rthv_core.Hyp_trace.set_row_spill}
    hook and a {!Rthv_core.Trace_store.scan} callback.
    @raise Rthv_obs.Tracestore.Corrupt on a row outside the schema. *)

val finish : t -> Diagnostic.t list * measurement
(** The end-of-stream ruling: every finding, sorted most severe first
    ({!Diagnostic.sort}), and the measured quantities a {!Witness} embeds
    in its artifact so a reviewer can compare prediction against
    observation without re-running the simulation.  Call it once, after
    the last event. *)

val attach : spec -> Rthv_core.Hyp_trace.t -> t
(** {!create} a fold and add its {!row} to the trace's spill hooks: the
    fold sees every event the trace records from now on, whatever the
    ring's capacity. *)

val refuted_claims : service_claim list -> measurement -> Diagnostic.t list
(** The RTHV109 findings of [claims] against a finished fold's measured
    service, in claim order.  {!finish} reports these for the spec's own
    claims; a {!Witness} whose claim depends on the measured horizon judges
    it here without folding the run again. *)

val audit_entries :
  ?dropped:int -> spec -> Rthv_core.Hyp_trace.entry list -> Diagnostic.t list
(** {!audit} a raw entry list (oldest first), e.g. one built by hand in a
    test, recorded into a ring that holds all of it.  [dropped] (default
    0) is how many older entries the list's recorder lost, as a
    re-imported flight dump's {!Rthv_core.Trace_export.jsonl} says: any
    gives the RTHV107 warning. *)

val audit : spec -> Rthv_core.Hyp_trace.t -> Diagnostic.t list
(** Fold a trace someone already recorded, walking its ring's rows in
    place.  If
    the ring dropped entries the result is a single [RTHV107] warning and
    nothing else is checked: the stream really is truncated, and a skipped
    audit is a blind spot, not mere trivia.  To audit a run of any length,
    {!attach} the fold before the run instead. *)

val audit_store : spec -> string -> (Diagnostic.t list, string) result
(** Fold the rows of a binary trace store ({!Rthv_core.Trace_store}) as
    {!Rthv_core.Trace_store.scan} reads them, with no decode and without
    materializing the store: archived certification evidence
    replays through the oracle without a JSONL detour.  IO and corruption
    problems come back as [Error msg]. *)

val invariants : (string * string) list
(** [(code, one-line description)] for every trace invariant, in code
    order. *)
