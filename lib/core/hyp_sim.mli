(** The hypervisor simulation.

    A cycle-accurate single-core model of the uC/OS-MMU-style hypervisor of
    Section 3, with the original (Figure 4a) or modified (Figure 4b) top
    handler depending on the configuration:

    - partitions run under static TDMA; every slot begins with a context
      switch of C_ctx paid from inside the slot;
    - hypervisor work (top handlers, monitor checks, scheduler manipulation,
      context switches) executes at the highest priority, FIFO,
      non-preemptible by partition work;
    - each IRQ raises an interrupt-controller line (non-counting pending
      flag); the top handler costs C_TH, acks the line, pushes an event into
      the subscriber's FIFO interrupt queue, reprograms the source's trigger
      timer with the next pre-generated interarrival, and routes the event:
      direct (subscriber owns the current slot), interposed (foreign slot,
      monitor admits) or delayed;
    - an interposed bottom handler executes in the subscriber's context for
      at most C_BH of {e execution time} (budget paused while preempted by
      top handlers), bracketed by C_sched + 2 * C_ctx (equation (13));
    - admission additionally requires that no other interposition is in
      flight (at most one at a time); an interposition still running at a
      slot boundary completes its bounded budget, charged to the incoming
      slot;
    - a bottom handler executing when its own slot ends is allowed to finish
      (switch deferred by at most its remaining budget) under the default
      {!Boundary_policy.Finish_bottom_handler}; under
      {!Boundary_policy.Strict_cut} it is cut, keeps its remaining work at
      the queue head and resumes in its partition's next slot.

    Internally this module is only the simulation loop and a façade: routing
    decisions live in {!Sim_route}, boundary handling in {!Sim_boundary},
    runtime state in {!Sim_state}, statistics assembly in {!Sim_stats}.
    The loop jumps from event to event over one
    {!Rthv_engine.Event_arena}: a segment of work runs until it completes
    or the next arrival or slot boundary is due, whichever comes first.  The
    policy questions — admit this interposition?  what are the slot lengths?
    cut the handler at the boundary? — are answered by the {!Admission},
    {!Slot_plan} and {!Boundary_policy} values built from the configuration,
    so new policies plug in without touching any code here. *)

type t = Sim_state.t

type stats = Sim_stats.t = {
  completed_irqs : int;
  direct : int;
  interposed : int;
  delayed : int;
  slot_switches : int;  (** Context switches at TDMA slot boundaries. *)
  interposition_switches : int;
      (** Context switches caused by interposed handling (2 per complete
          interposition). *)
  interpositions_started : int;
  boundary_crossings : int;
      (** Interpositions still running when a slot boundary fired; the
          bounded spill is charged to the incoming slot. *)
  bh_boundary_deferrals : int;
      (** Slot switches deferred (by at most the handler's remaining budget)
          because the owner was mid-bottom-handler. *)
  monitor_checks : int;
  admissions : int;
  denials : int;
  coalesced_irqs : int;  (** IRQs lost to an already-pending line. *)
  stolen_total : Rthv_engine.Cycles.t array;
      (** Per partition: total foreign interposition time consumed during
          its slots (the interference I_p of equation (2)). *)
  stolen_slot_max : Rthv_engine.Cycles.t array;
      (** Per partition: maximum stolen time in any single slot instance —
          to compare against equation (14) over a window of T_i. *)
  sim_time : Rthv_engine.Cycles.t;  (** Final simulated clock. *)
}

val create :
  ?trace:Hyp_trace.t ->
  ?policies:(string * Admission.t) list ->
  ?retain:bool ->
  Config.t ->
  t
(** [?trace] attaches a hypervisor event trace buffer; every scheduling
    decision (slot switches, deferrals, top handlers, monitor decisions,
    interpositions, completions) is recorded into it.  When no trace is
    passed, one is attached anyway if something reads the events: the
    {!Flight_recorder}'s ring (of its capacity) while the recorder is on,
    otherwise a 256-entry ring when a registry or an audit hook is
    installed.  The folds on its spill hooks, not the ring, see the whole
    run.

    While an audit hook is installed (see {!set_audit_hook}), [create] hands
    it the configuration and the trace, and keeps the ruling it returns for
    {!run}.

    [?policies] overrides the admission policy of the named sources,
    bypassing the {!Config.shaping} dispatch — the injection point for
    policies the configuration grammar cannot express ({!Admission.custom}).
    Sources not named keep the policy their shaping describes.  Note that
    the static linter and the trace-invariant oracle derive their bounds
    from the configuration: a run whose real policy is an override should
    not be audited against shaping-derived rules unless the override is at
    least as strict as the declared shaping.

    [?retain] (default [true]): when [false], per-IRQ completion records
    (and the guests' task-completion lists) are not accumulated — streaming
    runs over millions of IRQs keep O(1) memory: the remaining per-IRQ
    state is sized by the IRQs in flight at once, not by the run length.
    {!records} then returns [[]]; {!stats} is unaffected (completion counts
    are maintained separately).  Either way a completed bottom-half queue
    item is reused for a later IRQ.

    While a registry is installed ({!Rthv_obs.Registry.with_installed}),
    the simulation adds a {!Sim_metrics} fold to its trace's spill hooks
    (attaching a small ring when there is no trace), so a trace reused
    across such simulations feeds every one of their folds.
    @raise Invalid_argument if [Config.validate] fails or a policy names an
    unknown source. *)

val set_audit_hook : (Config.t -> Hyp_trace.t -> unit -> unit) option -> unit
(** Install (or clear) the global audit hook.  While installed, {!create}
    calls it once per simulation with the configuration and the
    simulation's trace; the hook attaches its fold to the trace's spill
    hooks and returns the ruling, which {!run} calls exactly once, when the
    run finishes.  So the hook audits the simulations created while it is
    installed, whatever their length, and clearing it does not cancel the
    rulings of simulations already created.  [Rthv_check.Audit_hook] uses
    this to run the trace-invariant oracle across entire test suites. *)

val audit_hook_installed : unit -> bool

val run : ?horizon:Rthv_engine.Cycles.t -> t -> unit
(** Run until every generated IRQ has completed its bottom handler (and all
    interarrival arrays are exhausted), or until [horizon] (default: one
    simulated hour).  Idempotent once finished. *)

val records : t -> Irq_record.t list
(** Completed IRQ records, in arrival order, which is IRQ-id order: the
    simulation stores each record at its IRQ id, so this is one O(n) pass
    over the store, with no sort.  IRQs still in flight (after a [horizon]
    cut) are absent.  Each call builds a fresh list. *)

val stats : t -> stats

val guest : t -> int -> Rthv_rtos.Guest.t
(** Partition [i]'s guest, for task-level inspection. *)

val ipc : t -> Rthv_rtos.Ipc.t
(** The hypervisor's IPC port registry. *)

val port : t -> string -> Rthv_rtos.Ipc.port
(** Look up a declared port.  @raise Not_found if undeclared. *)

val admission : t -> source:string -> Admission.t option
(** The named source's admission policy instance (introspection — checks,
    underlying monitor). *)

val monitor : t -> source:string -> Monitor.t option
(** The underlying delta^- monitor of the named source's admission policy,
    if it has one. *)

val now : t -> Rthv_engine.Cycles.t
