(* The reference adversarial schedule: the list-replay [earliest_admissible]
   and [adversarial_schedule] that Rthv_check.Absint's incremental admission
   states replaced, kept verbatim so the tests can check that the library
   returns the same schedule for every policy, footprint and horizon.  Each
   step walks (and, for a token bucket, reverses and replays) the whole
   admitted history, so a schedule of n events costs O(n²).  Only
   test_absint uses it. *)

module Cycles = Rthv_engine.Cycles
module DF = Rthv_analysis.Distance_fn
module Bound = Rthv_analysis.Bound

let max_events = 4096

(* Earliest time >= t at which the policy admits, given the admitted history
   (newest first).  [None] when admission cannot be predicted statically. *)
let rec earliest_admissible policy t hist =
  match policy with
  | Bound.Unshaped | Bound.Shaped_opaque -> None
  | Bound.Monitored fn ->
      let l = DF.length fn in
      let t' = ref t in
      List.iteri
        (fun i prev ->
          if i < l then begin
            let earliest = Cycles.( + ) prev (DF.delta fn (i + 2)) in
            if earliest > !t' then t' := earliest
          end)
        hist;
      Some !t'
  | Bound.Bucketed { capacity; refill } ->
      (* Replay the history through {!Rthv_core.Throttle}'s arithmetic: the
         bucket starts full and earns one token per elapsed [refill]
         (capped at [capacity]) — the meter runs from [last], not from the
         consumptions, so the long-term rate is 1/refill regardless of
         capacity.  Keeping this in lockstep with the simulator is what
         makes the interval's lower end genuinely achievable. *)
      let tokens = ref capacity and last = ref 0 in
      let update ts =
        if !tokens < capacity then begin
          let earned = Cycles.( - ) ts !last / refill in
          let granted = Stdlib.min earned (capacity - !tokens) in
          tokens := !tokens + granted;
          if !tokens = capacity then last := ts
          else last := Cycles.( + ) !last (Cycles.( * ) refill earned)
        end
        else last := ts
      in
      List.iter
        (fun a ->
          update a;
          decr tokens)
        (List.rev hist);
      update t;
      if !tokens >= 1 then Some t else Some (Cycles.( + ) !last refill)
  | Bound.Budgeted { per_cycle; cycle } ->
      let window = t / cycle in
      let in_window =
        List.fold_left
          (fun acc a -> if a / cycle = window then acc + 1 else acc)
          0 hist
      in
      if in_window < per_cycle then Some t
      else Some (Cycles.( * ) cycle (window + 1))
  | Bound.Composite components ->
      (* Iterate until every component agrees on the same admission time. *)
      let rec settle t guard =
        if guard > 64 then None
        else
          let settled =
            List.fold_left
              (fun acc p ->
                match (acc, earliest_admissible p t hist) with
                | Some acc, Some t' -> Some (Cycles.max acc t')
                | _ -> None)
              (Some t) components
          in
          match settled with
          | None -> None
          | Some t' when t' = t -> Some t
          | Some t' -> settle t' (guard + 1)
      in
      settle t 0

let adversarial_schedule ~policy ~footprint ~horizon =
  if footprint <= 0 then
    invalid_arg "Absint.adversarial_schedule: footprint must be positive";
  let rec next acc count t =
    if count >= max_events || t > horizon then List.rev acc
    else
      match earliest_admissible policy t acc with
      | None -> List.rev acc
      | Some t' when t' > horizon -> List.rev acc
      | Some t' -> next (t' :: acc) (count + 1) (Cycles.( + ) t' footprint)
  in
  next [] 0 1
