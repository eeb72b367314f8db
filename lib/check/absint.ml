module Cycles = Rthv_engine.Cycles
module Platform = Rthv_hw.Platform
module Config = Rthv_core.Config
module Task = Rthv_rtos.Task
module DF = Rthv_analysis.Distance_fn
module Independence = Rthv_analysis.Independence
module Certificate = Rthv_analysis.Certificate
module Bound = Rthv_analysis.Bound

(* --- shared policy primitives (re-exported by Lint) --------------------- *)

let c_bh_eff ~platform ~c_bh =
  Cycles.( + ) c_bh
    (Cycles.( + )
       (Platform.sched_manip_cost platform)
       (Cycles.( * ) (Platform.ctx_switch_cost platform) 2))

let footprint ~platform ~c_th ~c_bh_eff =
  Cycles.( + ) c_th (Cycles.( + ) (Platform.monitor_cost platform) c_bh_eff)

let shaped source =
  match source.Config.shaping with
  | Config.No_shaping -> false
  | Config.Fixed_monitor _ | Config.Self_learning _ | Config.Token_bucket _
  | Config.Budgeted _ | Config.Monitor_and_bucket _ ->
      true

(* The analysis-side descriptor of a shaping policy: the single point where
   configuration variants map onto [Bound.policy], shared by the linter,
   the trace oracle and the headroom gate.  A self-learning monitor without
   a load bound has no static envelope; a bounded one admits at most what
   the bound allows (Algorithm 2 raises every learned entry to the bound,
   so conformance to the adjusted condition implies conformance to the
   bound). *)
let bound_policy ~cycle = function
  | Config.No_shaping -> Bound.Unshaped
  | Config.Fixed_monitor fn -> Bound.Monitored fn
  | Config.Self_learning { bound = Some b; _ } -> Bound.Monitored b
  | Config.Self_learning { bound = None; _ } -> Bound.Shaped_opaque
  | Config.Token_bucket { capacity; refill } ->
      Bound.Bucketed { capacity; refill }
  | Config.Budgeted { per_cycle } -> Bound.Budgeted { per_cycle; cycle }
  | Config.Monitor_and_bucket { fn; capacity; refill } ->
      Bound.Composite
        [ Bound.Monitored fn; Bound.Bucketed { capacity; refill } ]

(* --- interval domain ---------------------------------------------------- *)

module Itv = struct
  type t = { lo : int; hi : int option }

  let zero = { lo = 0; hi = Some 0 }

  (* Saturating: two saturated eq.-(14) curves sum to max_int, not to a
     negative interval. *)
  let add a b =
    {
      lo = Cycles.add_sat a.lo b.lo;
      hi =
        (match (a.hi, b.hi) with
        | Some x, Some y -> Some (Cycles.add_sat x y)
        | _ -> None);
    }

  let consistent t =
    t.lo >= 0 && match t.hi with Some h -> t.lo <= h | None -> true
end

(* --- adversarial admission schedule ------------------------------------- *)

let max_events = 4096

(* A policy's admission state over the schedule built so far, advanced by
   one [admit] per scheduled arrival.  Every query comes at or after the
   latest admission (the schedule only moves forward), which is what makes
   each state exact:
   - a monitor's earliest admission reads only its last [l] admissions:
     the [i]-th newest plus δ⁻(i+2);
   - a token bucket's meter is {!Rthv_core.Throttle}'s arithmetic folded
     over the admissions in order: the bucket starts full and earns one
     token per elapsed [refill] (capped at [capacity]), and the meter runs
     from [last], not from the consumptions, so the long-term rate is
     1/refill regardless of capacity.  Keeping this in lockstep with the
     simulator is what makes the interval's lower end genuinely
     achievable;
   - a budget counts the admissions in the query's aligned window, and
     only the latest admission's window can hold any;
   - a composite keeps one state per component and admits only at a time
     every component agrees on. *)
type bucket = {
  capacity : int;
  refill : Cycles.t;
  mutable tokens : int;
  mutable last : Cycles.t;
}

type admission =
  | Never  (* unshaped, or admission cannot be predicted statically *)
  | Monitor of {
      gap : Cycles.t array;  (* [gap.(i)] = δ⁻(i+2) *)
      recent : Cycles.t array;  (* the last [l] admissions, newest first *)
      mutable n : int;  (* admissions so far *)
    }
  | Bucket of bucket
  | Budget of {
      per_cycle : int;
      cycle : Cycles.t;
      mutable window : int;
      mutable count : int;  (* admissions in [window] *)
    }
  | All of admission list

exception Unpredictable

let rec admission = function
  | Bound.Unshaped | Bound.Shaped_opaque -> Never
  | Bound.Monitored fn ->
      let l = DF.length fn in
      Monitor
        {
          gap = Array.init l (fun i -> DF.delta fn (i + 2));
          recent = Array.make l 0;
          n = 0;
        }
  | Bound.Bucketed { capacity; refill } ->
      Bucket { capacity; refill; tokens = capacity; last = 0 }
  | Bound.Budgeted { per_cycle; cycle } ->
      Budget { per_cycle; cycle; window = min_int; count = 0 }
  | Bound.Composite components -> All (List.map admission components)

(* The bucket's token count ([level]) and meter start ([meter]) once
   {!Rthv_core.Throttle}'s update has brought them forward to [ts]. *)
let level b ts =
  if b.tokens < b.capacity then
    b.tokens
    + Stdlib.min (Cycles.( - ) ts b.last / b.refill) (b.capacity - b.tokens)
  else b.tokens

let meter b ts ~level =
  if b.tokens < b.capacity && level < b.capacity then
    Cycles.( + ) b.last
      (Cycles.( * ) b.refill (Cycles.( - ) ts b.last / b.refill))
  else ts

(* Earliest time >= t at which the policy admits.
   @raise Unpredictable when admission cannot be predicted statically. *)
let rec earliest st t =
  match st with
  | Never -> raise Unpredictable
  | Monitor { gap; recent; n } ->
      let t' = ref t in
      for i = 0 to Stdlib.min n (Array.length recent) - 1 do
        let e = Cycles.( + ) recent.(i) gap.(i) in
        if e > !t' then t' := e
      done;
      !t'
  | Bucket b ->
      let level = level b t in
      if level >= 1 then t else Cycles.( + ) (meter b t ~level) b.refill
  | Budget { per_cycle; cycle; window; count } ->
      let w = t / cycle in
      if (if w = window then count else 0) < per_cycle then t
      else Cycles.( * ) cycle (w + 1)
  | All components ->
      (* Iterate until every component agrees on the same admission time. *)
      let rec settle t guard =
        if guard > 64 then raise Unpredictable
        else
          let t' =
            List.fold_left
              (fun acc st -> Cycles.max acc (earliest st t))
              t components
          in
          if t' = t then t else settle t' (guard + 1)
      in
      settle t 0

let rec admit st t =
  match st with
  | Never -> ()
  | Monitor m ->
      for i = Array.length m.recent - 1 downto 1 do
        m.recent.(i) <- m.recent.(i - 1)
      done;
      m.recent.(0) <- t;
      m.n <- m.n + 1
  | Bucket b ->
      let level = level b t in
      b.last <- meter b t ~level;
      b.tokens <- level - 1
  | Budget b ->
      let w = t / b.cycle in
      if w = b.window then b.count <- b.count + 1
      else begin
        b.window <- w;
        b.count <- 1
      end
  | All components -> List.iter (fun st -> admit st t) components

let adversarial_schedule ~policy ~footprint ~horizon =
  if footprint <= 0 then
    invalid_arg "Absint.adversarial_schedule: footprint must be positive";
  let st = admission policy in
  let[@tail_mod_cons] rec next count t =
    if count >= max_events || t > horizon then []
    else
      match earliest st t with
      | exception Unpredictable -> []
      | t' when t' > horizon -> []
      | t' ->
          admit st t';
          t' :: next (count + 1) (Cycles.( + ) t' footprint)
  in
  next 0 1

(* Densest count of the ascending [times] in any half-open window. *)
let max_in_window times ~window =
  if window <= 0 then 0
  else begin
    let n = Array.length times in
    let best = ref 0 in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if !j < i + 1 then j := i + 1;
      while !j < n && Cycles.( - ) times.(!j) times.(i) < window do
        incr j
      done;
      if !j - i > !best then best := !j - i
    done;
    !best
  end

(* --- facts --------------------------------------------------------------- *)

type verdict = Proved | Refuted | Unknown

let verdict_name = function
  | Proved -> "proved"
  | Refuted -> "refuted"
  | Unknown -> "unknown"

type source_fact = {
  sf_name : string;
  sf_line : int;
  sf_subscriber : int;
  sf_policy : Bound.policy;
  sf_c_bh_eff : Cycles.t;
  sf_footprint : Cycles.t;
  sf_degenerate : bool;
  sf_active : bool;
  sf_per_instance : bool;
  sf_admissions : (Cycles.t * Itv.t) list;
  sf_interference : (Cycles.t * Itv.t) list;
  sf_ceiling : (Cycles.t * int) list;
  sf_util_loss : float option;
  sf_workload_max_per_cycle : int option;
}

type partition_fact = {
  pf_index : int;
  pf_name : string;
  pf_declared : Cycles.t;
  pf_slot : Cycles.t;
  pf_share : float;
  pf_task_util : float;
  pf_demand : float;
  pf_interference : Itv.t;
  pf_verdict : verdict;
}

type t = {
  cycle : Cycles.t;
  c_ctx : Cycles.t;
  windows : Cycles.t list;
  sources : source_fact list;
  partitions : partition_fact list;
  util_loss_closed : float;
  util : float * float option;
  closed : Certificate.t;
  full_verdicts : Certificate.verdict list option;
}

(* RTHV004's per-source long-term utilisation loss.  A composite's admitted
   stream satisfies every component, so the smallest loss governs. *)
let rec util_loss ~eff = function
  | Bound.Unshaped | Bound.Shaped_opaque -> None
  | Bound.Monitored fn ->
      if Bound.degenerate fn then None
      else Some (Independence.utilisation_loss ~monitor:fn ~c_bh_eff:eff)
  | Bound.Bucketed { refill; _ } ->
      Some (float_of_int eff /. float_of_int refill)
  | Bound.Budgeted { per_cycle; cycle } ->
      Some (float_of_int (Cycles.mul_sat eff per_cycle) /. float_of_int cycle)
  | Bound.Composite ps ->
      List.fold_left
        (fun acc p ->
          match (acc, util_loss ~eff p) with
          | None, l | l, None -> l
          | Some a, Some b -> Some (Float.min a b))
        None ps

(* The densest aligned-cycle window of the pre-generated workload — the
   RTHV015 envelope, computed for every firing source. *)
let workload_max_per_cycle (s : Config.source) ~cycle =
  let n = Array.length s.Config.interarrivals in
  if n = 0 then None
  else begin
    let times = Array.make n 0 in
    let acc = ref 0 in
    Array.iteri
      (fun i d ->
        acc := Cycles.( + ) !acc d;
        times.(i) <- !acc)
      s.Config.interarrivals;
    let max_per_window = ref 0 in
    let count = ref 0 in
    let window = ref (-1) in
    Array.iter
      (fun ts ->
        let w = ts / cycle in
        if w <> !window then begin
          window := w;
          count := 0
        end;
        incr count;
        if !count > !max_per_window then max_per_window := !count)
      times;
    Some !max_per_window
  end

let source_fact config ~cycle ~windows (s : Config.source) =
  let platform = config.Config.platform in
  let policy = bound_policy ~cycle s.Config.shaping in
  let eff = c_bh_eff ~platform ~c_bh:s.Config.c_bh in
  let fp = footprint ~platform ~c_th:s.Config.c_th ~c_bh_eff:eff in
  let is_degenerate =
    match Bound.condition policy with
    | Some fn -> Bound.degenerate fn
    | None -> false
  in
  let active =
    Bound.shaped policy && Array.length s.Config.interarrivals > 0
  in
  let curve = Bound.interference policy ~c_bh_eff:eff in
  let max_window = List.fold_left Cycles.max 0 windows in
  let horizon = Cycles.( + ) (Cycles.( * ) max_window 3) fp in
  let schedule =
    if active then
      Array.of_list (adversarial_schedule ~policy ~footprint:fp ~horizon)
    else [||]
  in
  (* Per window: the schedule's densest count and the proved curve, each
     evaluated once for both the admissions and the interference. *)
  let per_window =
    List.map
      (fun w ->
        let hi =
          match curve with
          | Some c -> Some (c w)
          | None -> if active then None else Some 0
        in
        (w, max_in_window schedule ~window:w, hi))
      windows
  in
  let admissions =
    List.map
      (fun (w, lo, hi) ->
        (w, { Itv.lo; hi = Option.map (fun h -> h / Stdlib.max 1 eff) hi }))
      per_window
  in
  let interference =
    List.map
      (fun (w, lo, hi) -> (w, { Itv.lo = Cycles.mul_sat eff lo; hi }))
      per_window
  in
  let ceiling = List.map (fun w -> (w, (w / Stdlib.max 1 eff) + 1)) windows in
  {
    sf_name = s.Config.name;
    sf_line = s.Config.line;
    sf_subscriber = s.Config.subscriber;
    sf_policy = policy;
    sf_c_bh_eff = eff;
    sf_footprint = fp;
    sf_degenerate = is_degenerate;
    sf_active = active;
    sf_per_instance = false (* the gate below decides *);
    sf_admissions = admissions;
    sf_interference = interference;
    sf_ceiling = ceiling;
    sf_util_loss = util_loss ~eff policy;
    sf_workload_max_per_cycle = workload_max_per_cycle s ~cycle;
  }

(* The eq.-(16) per-instance gate: a non-degenerate per-instance condition,
   and no other active source can interpose (RTHV016's sole-interposer
   assumption). *)
let per_instance facts f =
  f.sf_active
  && (match Bound.per_instance_condition f.sf_policy with
     | Some fn -> not (Bound.degenerate fn)
     | None -> false)
  && not (List.exists (fun o -> o.sf_name <> f.sf_name && o.sf_active) facts)

(* One ordered pass: source facts, their gates, the two certificates, then
   the partition facts and the utilisation interval, which fold them. *)
let analyze config =
  let plan = Config.slot_plan config in
  let cycle = Rthv_core.Slot_plan.cycle_length plan in
  let c_ctx = Platform.ctx_switch_cost config.Config.platform in
  let slots = Rthv_core.Slot_plan.slots plan in
  let windows =
    List.sort_uniq Cycles.compare
      (cycle :: List.filter (fun s -> s > 0) (Array.to_list slots))
  in
  let sources = config.Config.sources in
  let partitions = config.Config.partitions in
  let facts =
    let facts = List.map (source_fact config ~cycle ~windows) sources in
    List.map
      (fun f ->
        if per_instance facts f then { f with sf_per_instance = true } else f)
      facts
  in
  (* The closed-form long-term utilisation fold of RTHV004, in
     configuration order. *)
  let util_loss_closed =
    List.fold_left
      (fun acc f -> acc +. Option.value ~default:0. f.sf_util_loss)
      0. facts
  in
  (* The grant-only certificate: exactly the RTHV005 proof obligation. *)
  let grants =
    List.filter_map
      (fun f ->
        match Bound.condition f.sf_policy with
        | Some fn when not (Bound.degenerate fn) ->
            Some
              {
                Certificate.source_name = f.sf_name;
                monitor = fn;
                c_bh_eff = f.sf_c_bh_eff;
                subscriber = f.sf_subscriber;
              }
        | Some _ | None -> None)
      facts
  in
  let cert_partitions =
    List.mapi
      (fun i (p : Config.partition) ->
        {
          Certificate.p_index = i;
          p_name = p.Config.pname;
          slot = slots.(i);
          tasks = List.map Rthv_analysis.Guest_sched.of_spec p.Config.tasks;
        })
      partitions
  in
  let closed =
    Certificate.check ~cycle ~c_ctx ~partitions:cert_partitions ~grants
  in
  (* The interval certificate: every active source contributes its policy
     curve — buckets and budgets included, the closed form's blind spot. *)
  let active = List.filter (fun f -> f.sf_active) facts in
  let full_verdicts =
    let curves =
      List.map
        (fun f -> Bound.interference f.sf_policy ~c_bh_eff:f.sf_c_bh_eff)
        active
    in
    if List.exists (fun c -> c = None) curves then None
    else
      let interference =
        Independence.sum (List.filter_map (fun c -> c) curves)
      in
      let carry_in =
        List.fold_left (fun acc f -> Cycles.max acc f.sf_c_bh_eff) 0 active
      in
      Some
        (Certificate.analyse_curves ~cycle ~c_ctx ~partitions:cert_partitions
           ~interference ~carry_in ~utilisation_loss:util_loss_closed)
  in
  let schedulable i (vs : Certificate.verdict list) =
    List.exists
      (fun (v : Certificate.verdict) ->
        v.Certificate.v_index = i && v.Certificate.schedulable)
      vs
  in
  let partition_fact i (p : Config.partition) =
    let slot = slots.(i) in
    let share =
      if slot <= c_ctx then 0.
      else float_of_int (Cycles.( - ) slot c_ctx) /. float_of_int cycle
    in
    let task_util = Task.utilisation p.Config.tasks in
    let irq_demand =
      List.fold_left
        (fun acc (s : Config.source) ->
          let n_arr = Array.length s.Config.interarrivals in
          if s.Config.subscriber <> i || n_arr = 0 then acc
          else
            let total =
              Array.fold_left
                (fun acc d -> acc +. float_of_int d)
                0. s.Config.interarrivals
            in
            if total <= 0. then acc
            else acc +. (float_of_int n_arr /. total *. float_of_int s.Config.c_bh))
        0. sources
    in
    let demand = task_util +. irq_demand in
    let interference =
      List.fold_left
        (fun acc f ->
          if f.sf_subscriber = i || not f.sf_active then acc
          else
            match List.assoc_opt slot f.sf_interference with
            | Some itv -> Itv.add acc itv
            | None -> acc)
        Itv.zero facts
    in
    let verdict =
      if share = 0. then Refuted
      else if demand > share +. 1e-9 then Refuted
      else
        match Option.map (schedulable i) full_verdicts with
        | Some true -> Proved
        | Some false -> Refuted
        | None ->
            if schedulable i closed.Certificate.verdicts then Unknown
            else Refuted
    in
    {
      pf_index = i;
      pf_name = p.Config.pname;
      pf_declared = p.Config.slot;
      pf_slot = slot;
      pf_share = share;
      pf_task_util = task_util;
      pf_demand = demand;
      pf_interference = interference;
      pf_verdict = verdict;
    }
  in
  (* Interference utilisation interval over one cycle. *)
  let util_lo =
    List.fold_left
      (fun acc f ->
        match List.assoc_opt cycle f.sf_interference with
        | Some itv -> acc +. (float_of_int itv.Itv.lo /. float_of_int cycle)
        | None -> acc)
      0. facts
  in
  let util_hi =
    List.fold_left
      (fun acc f ->
        match acc with
        | None -> None
        | Some acc -> (
            if not f.sf_active then Some acc
            else
              match List.assoc_opt cycle f.sf_interference with
              | Some { Itv.hi = Some h; _ } ->
                  Some (acc +. (float_of_int h /. float_of_int cycle))
              | Some { Itv.hi = None; _ } | None -> None))
      (Some 0.) facts
  in
  {
    cycle;
    c_ctx;
    windows;
    sources = facts;
    partitions = List.mapi partition_fact partitions;
    util_loss_closed;
    util = (util_lo, util_hi);
    closed;
    full_verdicts;
  }
