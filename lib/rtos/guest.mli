(** Para-virtualised guest operating system of one partition.

    Models the guest-visible behaviour of uC/OS-MMU's partition runtime:
    whenever the partition executes in unprivileged mode it first drains its
    interrupt queue through the bottom handler (steps (5)-(7) in Figure 2),
    then runs application tasks under fixed-priority preemptive scheduling,
    then an optional busy loop standing in for best-effort background work.

    The guest does not advance time itself; the hypervisor simulation
    attributes CPU segments to it via {!consume} and informs it of the
    passage of wall-clock time via {!advance_to} (job releases happen in
    absolute time whether or not the partition is scheduled). *)

type t

type policy =
  | Fixed_priority  (** Lower [Task.priority] value wins (default). *)
  | Edf
      (** Earliest deadline first, implicit deadlines (release + period);
          ties broken by release then job index. *)

type demand =
  | Bottom_handler of Irq_queue.item
      (** Head of the interrupt queue: always served first. *)
  | Task_job of Task.job  (** Highest-priority ready application job. *)
  | Filler  (** Busy-loop background work. *)
  | Idle  (** Nothing to run; the slot time is wasted (TDMA leaves unused
              capacity unused). *)

val create :
  ?tasks:Task.spec list ->
  ?busy_loop:bool ->
  ?ipc:Ipc.t ->
  ?policy:policy ->
  name:string ->
  unit ->
  t
(** [busy_loop] defaults to [true] — the experiment guests are busy loops.
    [ipc] is the system-wide port registry; required if any task produces or
    consumes a port (@raise Invalid_argument otherwise, or if a named port
    is not declared). *)

val name : t -> string

val queue : t -> Irq_queue.t
(** The partition's interrupt event queue (the hypervisor pushes here). *)

val busy_loop : t -> bool
(** Whether an otherwise-idle slot runs [Filler] (busy loop) or [Idle]. *)

val has_tasks : t -> bool
(** Whether the guest has any periodic task specs — when [false],
    {!advance_to} is a no-op and {!next_release} is [None], so the
    simulation skips the release machinery entirely.  (Aperiodic releases
    do not affect either; they surface through {!pick_ready}.) *)

val set_retain : t -> bool -> unit
(** When set to [false], {!take_completions} stops accumulating (always
    empty): streaming simulations over millions of events opt out of
    per-event retention.  Defaults to [true]. *)

val release_aperiodic : t -> spec:Task.spec -> now:Rthv_engine.Cycles.t -> unit
(** Release one job of an event-triggered task (e.g. signalled by a bottom
    handler).  The spec's [period]/[offset] are ignored for releases — each
    call creates exactly one job released [now]; [period] still serves as
    the implicit deadline for reporting.  The job competes under the guest's
    scheduling policy like any other. *)

val advance_to : t -> Rthv_engine.Cycles.t -> unit
(** Release all task jobs due at or before the given absolute time.  Must be
    called with non-decreasing times. *)

val next_release : t -> Rthv_engine.Cycles.t option
(** Earliest future job release.  [None] when the guest has no tasks. *)

val next_release_before : t -> Rthv_engine.Cycles.t -> Rthv_engine.Cycles.t
(** [next_release_before g limit] is the earlier of [limit] and
    {!next_release} ([limit] when the guest has no tasks), without the
    [option] box: the simulation bounds every execution segment with it. *)

val demand : t -> demand
(** What the guest would execute right now given its current state. *)

val has_ready : t -> bool
(** Whether any released task job is unfinished. *)

val pick_ready : t -> Task.job
(** The ready job the guest's policy would run now — the [Task_job]
    component of {!demand}, exposed so the simulation can resolve demand
    without boxing it.  @raise Not_found when no job is ready — guard with
    {!has_ready}. *)

val consume_bottom :
  t -> elapsed:Rthv_engine.Cycles.t -> Irq_queue.item -> unit
(** {!consume} specialised to the queue-head bottom handler; allocation
    free.  The item must be the queue head. *)

val consume_task :
  t -> now:Rthv_engine.Cycles.t -> elapsed:Rthv_engine.Cycles.t -> Task.job -> unit

val consume_filler : t -> elapsed:Rthv_engine.Cycles.t -> unit

val consume_idle : t -> elapsed:Rthv_engine.Cycles.t -> unit

val consume : t -> now:Rthv_engine.Cycles.t -> elapsed:Rthv_engine.Cycles.t -> demand -> unit
(** Attribute [elapsed] cycles of CPU ending at absolute time [now] to the
    given demand (which must be the one returned by {!demand} at segment
    start).  A completed bottom handler leaves the queue; a completed job
    is recorded for {!take_completions}.
    @raise Invalid_argument if more work is attributed than remained. *)

val take_completions : t -> Task.completion list
(** Task jobs completed since the last call, oldest first. *)

val cpu_time : t -> Rthv_engine.Cycles.t
(** Total CPU attributed to this guest (all demand kinds except [Idle]). *)

val idle_time : t -> Rthv_engine.Cycles.t

val backlog : t -> int
(** Released-but-unfinished task jobs (diagnoses guest overload). *)
