module Cycles = Rthv_engine.Cycles

type t = {
  name : string;
  active : bool;
  decide : Cycles.t -> bool;
  commit : Cycles.t -> unit;
  observe : Cycles.t -> unit;
  checks : unit -> int;
  earliest : Cycles.t -> Cycles.t;
  monitor : Monitor.t option;
}

let name t = t.name
let active t = t.active
let decide t ts = t.decide ts
let commit t ts = t.commit ts
let observe t ts = t.observe ts
let checks t = t.checks ()
let earliest t ts = t.earliest ts
let monitor t = t.monitor

let ignore_ts (_ : Cycles.t) = ()
let unpredictable (_ : Cycles.t) = max_int

let never () =
  {
    name = "never";
    active = false;
    decide = (fun _ -> false);
    commit =
      (fun _ -> invalid_arg "Admission.never: nothing is ever admitted");
    observe = ignore_ts;
    checks = (fun () -> 0);
    earliest = unpredictable;
    monitor = None;
  }

let of_monitor m =
  (* Eta-expanded: a partial application of a 2-ary function would route
     every per-IRQ call through the runtime's currying trampoline. *)
  {
    name = "monitor";
    active = true;
    decide = (fun ts -> Monitor.check m ts);
    commit = (fun ts -> Monitor.admit m ts);
    observe = (fun ts -> Monitor.note_arrival m ts);
    checks = (fun () -> Monitor.checked_count m);
    earliest = (fun ts -> Monitor.earliest m ts);
    monitor = Some m;
  }

let custom ?(observe = ignore_ts) ?monitor ~name ~decide ~commit () =
  (* The paid-check counter lives here, not in user code: every decide is
     one C_Mon-priced predicate execution whichever policy runs it. *)
  let checked = ref 0 in
  {
    name;
    active = true;
    decide =
      (fun ts ->
        incr checked;
        decide ts);
    commit;
    observe;
    checks = (fun () -> !checked);
    earliest = unpredictable;
    monitor;
  }

let of_throttle th =
  {
    name = "bucket";
    active = true;
    decide = (fun ts -> Throttle.check th ts);
    commit = (fun ts -> Throttle.admit th ts);
    observe = ignore_ts;
    checks = (fun () -> Throttle.checked_count th);
    earliest = (fun ts -> Throttle.earliest th ts);
    monitor = None;
  }

let budgeted ~per_cycle ~cycle =
  if per_cycle < 1 then invalid_arg "Admission.budgeted: per_cycle must be >= 1";
  if cycle < 1 then invalid_arg "Admission.budgeted: cycle must be >= 1";
  (* Aligned windows [k*cycle, (k+1)*cycle): the analysis-side affine bound
     (Independence.budget_bound) counts overlapped windows, so alignment —
     not a sliding window — is what the bound is proved against. *)
  let window = ref (-1) in
  let used = ref 0 in
  let checked = ref 0 in
  let sync ts =
    let w = ts / cycle in
    if w <> !window then begin
      window := w;
      used := 0
    end
  in
  {
    name = Printf.sprintf "budget(%d/cycle)" per_cycle;
    active = true;
    decide =
      (fun ts ->
        incr checked;
        sync ts;
        !used < per_cycle);
    commit =
      (fun ts ->
        sync ts;
        if !used >= per_cycle then
          invalid_arg "Admission.budgeted: budget exhausted";
        incr used);
    observe = ignore_ts;
    checks = (fun () -> !checked);
    earliest =
      (fun ts ->
        sync ts;
        if !used < per_cycle then ts
        else Cycles.add_sat (Cycles.( - ) ts (ts mod cycle)) cycle);
    monitor = None;
  }

let rec latest components ts acc =
  match components with
  | [] -> acc
  | c :: rest -> latest rest ts (Cycles.max acc (c.earliest ts))

let all_of components =
  match components with
  | [] -> invalid_arg "Admission.all_of: no components"
  | [ c ] -> c
  | _ ->
      let monitor = List.find_map (fun c -> c.monitor) components in
      {
        name =
          String.concat "+" (List.map (fun c -> c.name) components);
        active = List.for_all (fun c -> c.active) components;
        decide =
          (fun ts ->
            (* Every component's check runs (and is counted) even once one
               has said no: each models a paid execution on the real top
               handler, which evaluates its whole predicate. *)
            List.fold_left (fun acc c -> c.decide ts && acc) true components);
        commit = (fun ts -> List.iter (fun c -> c.commit ts) components);
        observe = (fun ts -> List.iter (fun c -> c.observe ts) components);
        checks =
          (fun () -> List.fold_left (fun acc c -> acc + c.checks ()) 0 components);
        earliest =
          (fun ts ->
            (* Ask again at the latest answer until every component agrees. *)
            let rec settle ts round =
              let ts' = latest components ts ts in
              if ts' = ts then ts
              else if round >= 64 || ts' = max_int then max_int
              else settle ts' (round + 1)
            in
            settle ts 0);
        monitor;
      }

let monitor_and_bucket ~fn ~capacity ~refill =
  all_of
    [
      of_monitor (Monitor.fixed fn);
      of_throttle (Throttle.create ~capacity ~refill);
    ]

let of_shaping ~cycle = function
  | Config.No_shaping -> never ()
  | Config.Fixed_monitor fn -> of_monitor (Monitor.fixed fn)
  | Config.Self_learning { l; learn_events; bound } ->
      of_monitor (Monitor.self_learning ~l ~learn_events ?bound ())
  | Config.Token_bucket { capacity; refill } ->
      of_throttle (Throttle.create ~capacity ~refill)
  | Config.Budgeted { per_cycle } -> budgeted ~per_cycle ~cycle
  | Config.Monitor_and_bucket { fn; capacity; refill } ->
      monitor_and_bucket ~fn ~capacity ~refill
