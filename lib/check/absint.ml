module Cycles = Rthv_engine.Cycles
module Platform = Rthv_hw.Platform
module Config = Rthv_core.Config
module Task = Rthv_rtos.Task
module DF = Rthv_analysis.Distance_fn
module Independence = Rthv_analysis.Independence
module Certificate = Rthv_analysis.Certificate
module Bound = Rthv_analysis.Bound
module Admission = Rthv_core.Admission
module Monitor = Rthv_core.Monitor
module Throttle = Rthv_core.Throttle

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

(* The simulator's own policy for a descriptor, so every scheduled time is
   one [Admission.decide] grants.  The empty composite admits at every
   time: a monitor whose one entry is zero. *)
let rec admission = function
  | Bound.Unshaped | Bound.Shaped_opaque -> Admission.never ()
  | Bound.Monitored fn -> Admission.of_monitor (Monitor.fixed fn)
  | Bound.Bucketed { capacity; refill } ->
      Admission.of_throttle (Throttle.create ~capacity ~refill)
  | Bound.Budgeted { per_cycle; cycle } -> Admission.budgeted ~per_cycle ~cycle
  | Bound.Composite [] ->
      Admission.of_monitor (Monitor.fixed (DF.unbounded ~l:1))
  | Bound.Composite components ->
      Admission.all_of (List.map admission components)

(* Each query comes at or after the latest admission, as [earliest]
   requires; the step saturates, so a footprint near [max_int] ends the
   schedule instead of wrapping it into negative times. *)
let adversarial_schedule ~policy ~footprint ~horizon =
  if footprint <= 0 then
    invalid_arg "Absint.adversarial_schedule: footprint must be positive";
  let a = admission policy in
  let[@tail_mod_cons] rec next count t =
    if count >= max_events || t > horizon then []
    else
      let t' = Admission.earliest a t in
      if t' > horizon || t' = max_int then []
      else begin
        Admission.commit a t';
        t' :: next (count + 1) (Cycles.add_sat t' footprint)
      end
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

(* The eq.-(16) per-instance gate: a non-degenerate per-instance condition
   (the policy half, which RTHV016 reads too), and no other active source
   can interpose (RTHV016's sole-interposer assumption). *)
let has_instance_condition f =
  match Bound.per_instance_condition f.sf_policy with
  | Some fn -> not (Bound.degenerate fn)
  | None -> false

let per_instance facts f =
  f.sf_active && has_instance_condition f
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
