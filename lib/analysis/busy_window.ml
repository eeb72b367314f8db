module Cycles = Rthv_engine.Cycles
module Registry = Rthv_obs.Registry
module Prof = Rthv_obs.Prof

(* Fixed-point phase for the profiler; convergence telemetry goes through
   the sink as gauges (iteration counts, final residual, explored q). *)
let ph_busy_window = Prof.phase "busy_window"

type outcome = Converged of Cycles.t | Diverged

type result = {
  response_time : Cycles.t;
  q_max : int;
  busy_windows : (int * Cycles.t) list;
  critical_q : int;
}

(* A few simulated hours at 200 MHz; any busy window that long means the
   resource is overloaded for every practical configuration in this repo. *)
let ceiling = 1_000_000 * Cycles.of_ms 1

(* Iteration cap: every genuine schedulability fixed point jumps to the next
   activation boundary per step, so well-formed systems converge in far
   fewer steps; a slow linear crawl towards the ceiling is an overload. *)
let max_iterations = 100_000

(* Convergence statistics of one fixed-point run, written into a caller-
   provided record so the iteration itself stays closure- and option-free
   (the per-call cost is gated to the word by the bench diff). *)
type fix_stats = { mutable fs_steps : int; mutable fs_residual : int }

let run_fixed_point stats ~q ~wcet ~interference =
  if q < 1 then invalid_arg "Busy_window.fixed_point: q < 1";
  if wcet < 0 then invalid_arg "Busy_window.fixed_point: negative wcet";
  let base = q * wcet in
  let rec iterate steps w =
    if w > ceiling || steps > max_iterations then begin
      stats.fs_steps <- steps;
      Diverged
    end
    else begin
      let w' = Cycles.( + ) base (interference w) in
      if w' = w then begin
        stats.fs_steps <- steps;
        stats.fs_residual <- 0;
        Converged w
      end
      else if w' < w then begin
        (* A non-monotone interference function shrank the window; the least
           fixed point is still bounded by w, so accept w.  The residual is
           the final contraction — nonzero only on this inexact exit. *)
        stats.fs_steps <- steps;
        stats.fs_residual <- Cycles.( - ) w w';
        Converged w
      end
      else iterate (steps + 1) w'
    end
  in
  iterate 0 base

let fixed_point ?steps ?residual ~q ~wcet ~interference () =
  let stats = { fs_steps = 0; fs_residual = 0 } in
  let outcome = run_fixed_point stats ~q ~wcet ~interference in
  (match steps with Some r -> r := stats.fs_steps | None -> ());
  (match residual with Some r -> r := stats.fs_residual | None -> ());
  outcome

let response_time ~wcet ~delta ~interference ?(max_q = 4096) () =
  let prof = Prof.installed () in
  Prof.enter prof ph_busy_window;
  let total_steps = ref 0 in
  let stats = { fs_steps = 0; fs_residual = 0 } in
  let rec explore q acc =
    if q > max_q then
      Error
        (Printf.sprintf
           "busy period still open after %d activations (overload?)" max_q)
    else begin
      let outcome = run_fixed_point stats ~q ~wcet ~interference in
      total_steps := !total_steps + stats.fs_steps;
      match outcome with
      | Diverged -> Error "busy window diverged: resource overloaded"
      | Converged w ->
          let acc = (q, w) :: acc in
          (* Equation (4): the (q+1)-th activation belongs to the same busy
             period iff it arrives no later than the q-event busy time. *)
          if delta (q + 1) <= w then explore (q + 1) acc
          else Ok (List.rev acc)
    end
  in
  let result =
    match explore 1 [] with
    | Error _ as e -> e
    | Ok busy_windows ->
        let response_time, critical_q =
          List.fold_left
            (fun (best, best_q) (q, w) ->
              let r = Cycles.( - ) w (delta q) in
              if r > best then (r, q) else (best, best_q))
            (0, 1) busy_windows
        in
        let q_max = List.length busy_windows in
        Ok { response_time; q_max; busy_windows; critical_q }
  in
  (match Registry.installed () with
  | Some reg ->
      let gauge name doc v =
        Registry.set_help reg name doc;
        Registry.set_gauge reg name (float_of_int v)
      in
      gauge "rthv_busy_window_iterations"
        "Fixed-point iterations of the last busy-window analysis."
        !total_steps;
      gauge "rthv_busy_window_residual_cycles"
        "Final residual of the last busy-window fixed point, in cycles."
        stats.fs_residual;
      Result.iter
        (fun r ->
          gauge "rthv_busy_window_q_max"
            "Activations in the last closed busy period." r.q_max)
        result
  | None -> ());
  Prof.leave prof;
  result

let utilisation ~contributions =
  List.fold_left (fun acc (rate, wcet) -> acc +. (rate *. wcet)) 0. contributions
