(** Deterministic multicore sweep engine.

    The evaluation pipeline runs many {e independent} simulations (one per
    load, per seed, per phase offset, per ablation variant).  Each run is
    seeded on its own — the drivers derive the per-task seed from the task's
    {e index} in the sweep ([seed + i], see {!derive_seed}) — so a sweep can
    be sharded across CPU cores without changing a single simulated cycle.

    This module provides that sharding on raw [Domain]s, no dependencies:

    - {b Determinism.}  Results are returned in input order, each slot
      computed by exactly one worker, so for a per-index pure [f] the
      parallel result is the {e same value} as the sequential one —
      experiment output is byte-identical whatever the job count.  The only
      scheduling freedom is {e which} domain computes an index, which is
      unobservable for per-index pure tasks.
    - {b Exact sequential fallback.}  A pool with [jobs = 1] (or a
      single-element input) runs the untouched [List.map]/[List.mapi]/
      [List.init] code path in the calling domain: no domains are spawned,
      no arrays built.
    - {b Chunked claiming.}  Workers grab contiguous index chunks from an
      atomic cursor, so unbalanced tasks (a 1 %-load run simulates ~10x
      longer than a 10 %-load run) still spread across cores.
    - {b No nested oversubscription.}  A sweep task that itself calls into
      this module runs its inner sweep sequentially; the domain count is
      bounded by the outermost pool's [jobs].

    Exceptions raised by tasks are re-raised in the caller, deterministically
    picking the lowest-index failure (with its backtrace) once all workers
    have finished.

    {b Caveat}: tasks run concurrently in separate domains, so they must not
    share mutable state.  Every simulation ([Hyp_sim.create] + [run]) is
    self-contained, and the installed [Rthv_obs.Registry] is domain-local
    (fresh domains start with none), so a registry installed in the calling
    domain simply does not see worker-domain runs.  To collect metrics
    {e across} a sweep, pass [?metrics]: each task then records into its own
    private registry (installed domain-locally for the task's duration), and
    the per-task registries are folded into the given
    registry {e in task-index order} once all tasks have finished.  The fold
    structure is identical at every job count, so the merged registry's
    exposition output is byte-identical whatever [--jobs] says.

    [?profile] applies the same scheme to phase profiles: each task runs
    under its own [Rthv_obs.Prof.spawn] of the given profiler (installed
    domain-locally for the task's duration) and the per-task trees are
    [absorb]ed into it in task-index order, merging by phase path — the
    aggregate profile is a deterministic function of the tasks, not of the
    job count. *)

type pool
(** A job-count handle.  Workers are spawned per call and joined before the
    call returns; a [pool] is cheap and holds no OS resources. *)

val create : ?jobs:int -> unit -> pool
(** [create ~jobs ()] makes a pool running at most [jobs] domains (including
    the caller, which participates as a worker).  Default: {!default_jobs}.
    At execution time the spawned-domain count is additionally clamped to
    [Domain.recommended_domain_count ()]: an oversized [jobs] on a small
    machine would thrash one core and run slower than sequential, and the
    clamp cannot change results (which domain computes an index is already
    unspecified).
    @raise Invalid_argument if [jobs < 1]. *)

val jobs : pool -> int

val effective_jobs : pool -> int
(** [jobs] after the hardware clamp: [min (jobs pool)
    (Domain.recommended_domain_count ())].  When this is [1] the pool runs
    the exact sequential code path — no slot arrays, no atomic cursor, no
    domains — so an oversized job count on a small machine cannot regress
    below the sequential wall-clock. *)

val sequential : pool
(** The [jobs = 1] pool: the exact pre-parallel code path. *)

val default_jobs : unit -> int
(** The job count used when [?pool] is omitted: the {!set_default_jobs}
    override if set, else the [RTHV_JOBS] environment variable if it parses
    to a positive integer, else [Domain.recommended_domain_count ()]. *)

val set_default_jobs : int -> unit
(** Process-wide override of {!default_jobs} (the CLIs' [--jobs] flag).
    @raise Invalid_argument if [jobs < 1]. *)

val default_pool : unit -> pool
(** A pool of {!default_jobs} workers. *)

val derive_seed : base:int -> index:int -> int
(** The sweep seed-derivation scheme: task [i] of a sweep seeded [base] uses
    [base + i] — the same arithmetic the sequential drivers have always
    used, so parallel and sequential sweeps feed identical seeds to
    identical tasks. *)

val map :
  ?pool:pool ->
  ?metrics:Rthv_obs.Registry.t ->
  ?profile:Rthv_obs.Prof.t ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** Order-preserving parallel [List.map].  With [?metrics], each task's
    telemetry is captured in a private registry and deterministically
    merged (task-index order) into the given one; [?profile] does the same
    for phase profiles — see the module caveat. *)

val mapi :
  ?pool:pool ->
  ?metrics:Rthv_obs.Registry.t ->
  ?profile:Rthv_obs.Prof.t ->
  (int -> 'a -> 'b) ->
  'a list ->
  'b list
(** Order-preserving parallel [List.mapi] — the workhorse for [seed + i]
    sweeps. *)

val init :
  ?pool:pool ->
  ?metrics:Rthv_obs.Registry.t ->
  ?profile:Rthv_obs.Prof.t ->
  int ->
  (int -> 'a) ->
  'a list
(** Parallel [List.init].  @raise Invalid_argument on negative length. *)

val map_array :
  ?pool:pool ->
  ?metrics:Rthv_obs.Registry.t ->
  ?profile:Rthv_obs.Prof.t ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** Order-preserving parallel [Array.map]. *)

val map_reduce :
  ?pool:pool ->
  ?metrics:Rthv_obs.Registry.t ->
  ?profile:Rthv_obs.Prof.t ->
  map:('a -> 'b) ->
  reduce:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a list ->
  'acc
(** [map_reduce ~map ~reduce ~init xs] maps in parallel, then folds the
    results {e in input order} in the calling domain — associativity of
    [reduce] is not required and the result equals the sequential
    [fold_left (fun acc x -> reduce acc (map x)) init xs]. *)
