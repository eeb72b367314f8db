type pool = { pool_jobs : int }

let jobs t = t.pool_jobs

let create_exn name jobs =
  if jobs < 1 then invalid_arg (name ^ ": jobs must be >= 1");
  { pool_jobs = jobs }

let sequential = { pool_jobs = 1 }

(* Set while executing inside a sweep worker: nested sweeps run sequentially
   so the live domain count stays bounded by the outermost pool. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let override_jobs = ref None

let env_jobs () =
  match Sys.getenv_opt "RTHV_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | Some _ | None -> None)

let default_jobs () =
  match !override_jobs with
  | Some n -> n
  | None -> (
      match env_jobs () with
      | Some n -> n
      | None -> Domain.recommended_domain_count ())

let set_default_jobs n =
  ignore (create_exn "Par.set_default_jobs" n : pool);
  override_jobs := Some n

let create ?jobs () =
  match jobs with
  | Some n -> create_exn "Par.create" n
  | None -> { pool_jobs = default_jobs () }

let default_pool () = { pool_jobs = default_jobs () }

let derive_seed ~base ~index = base + index

let resolve = function Some pool -> pool | None -> default_pool ()

(* Core fan-out: compute [f i] for i in [0, n), each index exactly once, into
   a slot array.  Workers claim contiguous chunks off an atomic cursor;
   which domain computes an index is the only scheduling freedom, and it is
   unobservable for per-index pure tasks.  All slots are filled before the
   join, so the post-join scan re-raises the lowest-index failure
   deterministically. *)
let run_tasks ~jobs n f =
  (* Never run more domains than the hardware can schedule: an oversized
     --jobs (or RTHV_JOBS) on a small machine would make the domains thrash
     one core and the "parallel" sweep run slower than the sequential path.
     The clamp is unobservable in the results — which domain computes an
     index is already unspecified. *)
  let jobs = Stdlib.min jobs (Domain.recommended_domain_count ()) in
  let results = Array.make n None in
  let chunk = Stdlib.max 1 (n / (jobs * 8)) in
  let cursor = Atomic.make 0 in
  let work () =
    let continue = ref true in
    while !continue do
      let lo = Atomic.fetch_and_add cursor chunk in
      if lo >= n then continue := false
      else
        for i = lo to Stdlib.min n (lo + chunk) - 1 do
          results.(i) <-
            Some
              (match f i with
              | v -> Ok v
              | exception e -> Error (e, Printexc.get_raw_backtrace ()))
        done
    done
  in
  let worker () =
    Domain.DLS.set in_worker true;
    work ()
  in
  let spawned =
    Array.init (Stdlib.min jobs n - 1) (fun _ -> Domain.spawn worker)
  in
  (* The caller participates as a worker; flag it so tasks that sweep again
     stay sequential inside their slot. *)
  Domain.DLS.set in_worker true;
  work ();
  Domain.DLS.set in_worker false;
  Array.iter Domain.join spawned;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false)
    results

let effective_jobs pool =
  Stdlib.min pool.pool_jobs (Domain.recommended_domain_count ())

(* The pool is only worth entering when it can actually run more than one
   domain: on a machine where the hardware clamp reduces it to a single
   worker the fan-out path would pay its slot array, atomic cursor and
   per-result boxing for zero parallelism — the exact "parallel slower
   than sequential" regression the sweep benchmark gates on. *)
let parallel pool n =
  effective_jobs pool > 1 && n > 1 && not (Domain.DLS.get in_worker)

module Registry = Rthv_obs.Registry
module Prof = Rthv_obs.Prof

(* Per-task metric isolation: task [i] records into its own registry,
   installed domain-locally for the task's duration, and the registries are
   folded into [into] in task-index order once every task has finished.
   The fold structure is identical at every job count — sequential included
   — so the merged registry's exposition output is byte-identical whatever
   [--jobs] says. *)
let with_metrics metrics n task =
  match metrics with
  | None -> (task, ignore)
  | Some into ->
      let regs = Array.init n (fun _ -> Registry.create ()) in
      let task' i = Registry.with_installed regs.(i) (fun () -> task i) in
      let finish () = Array.iter (fun reg -> Registry.merge ~into reg) regs in
      (task', finish)

(* Same scheme for phase profiles: task [i] runs under its own spawned
   profiler instance, absorbed into [into] in task-index order.  [absorb]
   merges by phase path, so the aggregate tree is independent of which
   domain ran which task. *)
let with_profile profile n task =
  match profile with
  | None -> (task, ignore)
  | Some into ->
      let profs = Array.init n (fun _ -> Prof.spawn into) in
      let task' i = Prof.with_profiler profs.(i) (fun () -> task i) in
      let finish () = Array.iter (fun p -> Prof.absorb ~into p) profs in
      (task', finish)

let instrumented metrics profile n task =
  let task, finish_metrics = with_metrics metrics n task in
  let task, finish_profile = with_profile profile n task in
  ( task,
    fun () ->
      finish_metrics ();
      finish_profile () )

(* Index order 0..n-1 guaranteed (List.init's evaluation order is not). *)
let build_in_order n task =
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (task i :: acc) in
  go 0 []

let run ?metrics ?profile pool n task =
  let task, finish = instrumented metrics profile n task in
  let out =
    if not (parallel pool n) then build_in_order n task
    else Array.to_list (run_tasks ~jobs:pool.pool_jobs n task)
  in
  finish ();
  out

let plain metrics profile = Option.is_none metrics && Option.is_none profile

let mapi ?pool ?metrics ?profile f xs =
  let pool = resolve pool in
  let n = List.length xs in
  if plain metrics profile && not (parallel pool n) then List.mapi f xs
  else begin
    let input = Array.of_list xs in
    run ?metrics ?profile pool n (fun i -> f i input.(i))
  end

let map ?pool ?metrics ?profile f xs =
  mapi ?pool ?metrics ?profile (fun _ x -> f x) xs

let init ?pool ?metrics ?profile n f =
  if n < 0 then invalid_arg "Par.init";
  let pool = resolve pool in
  if plain metrics profile && not (parallel pool n) then List.init n f
  else run ?metrics ?profile pool n f

let map_array ?pool ?metrics ?profile f input =
  let pool = resolve pool in
  let n = Array.length input in
  if plain metrics profile && not (parallel pool n) then Array.map f input
  else Array.of_list (run ?metrics ?profile pool n (fun i -> f input.(i)))

let map_reduce ?pool ?metrics ?profile ~map:f ~reduce ~init xs =
  let pool = resolve pool in
  if plain metrics profile && not (parallel pool (List.length xs)) then
    List.fold_left (fun acc x -> reduce acc (f x)) init xs
  else List.fold_left reduce init (map ~pool ?metrics ?profile f xs)
