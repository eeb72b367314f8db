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

(* The statically known envelope of the admitted stream.  A self-learning
   monitor without a load bound has no static envelope; a bounded one admits
   at most what the bound allows (Algorithm 2 raises every learned entry to
   the bound, so conformance to the adjusted condition implies conformance
   to the bound).  A composite inherits its monitored component's envelope;
   a budget maintains no distance condition. *)
let static_condition = function
  | Config.Fixed_monitor fn -> Some fn
  | Config.Self_learning { bound = Some b; _ } -> Some b
  | Config.Monitor_and_bucket { fn; _ } -> Some fn
  | Config.Self_learning { bound = None; _ }
  | Config.No_shaping | Config.Token_bucket _ | Config.Budgeted _ ->
      None

let shaped source =
  match source.Config.shaping with
  | Config.No_shaping -> false
  | Config.Fixed_monitor _ | Config.Self_learning _ | Config.Token_bucket _
  | Config.Budgeted _ | Config.Monitor_and_bucket _ ->
      true

(* The analysis-side descriptor of a shaping policy: the single point where
   configuration variants map onto [Bound.policy], shared by the linter,
   the trace oracle and the headroom gate. *)
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

(* A condition whose superadditive extension never grows admits an unbounded
   number of events in some finite window: eq. (14) yields no bound. *)
let degenerate fn = DF.delta fn (DF.length fn + 1) = 0

(* --- interval domain ---------------------------------------------------- *)

module Itv = struct
  type t = { lo : int; hi : int option }

  let exact v = { lo = v; hi = Some v }
  let between lo hi = { lo; hi = Some hi }
  let unbounded ~lo = { lo; hi = None }
  let zero = exact 0

  let add a b =
    {
      lo = a.lo + b.lo;
      hi = (match (a.hi, b.hi) with Some x, Some y -> Some (x + y) | _ -> None);
    }

  let scale a k =
    { lo = a.lo * k; hi = Option.map (fun h -> h * k) a.hi }

  let join a b =
    {
      lo = Stdlib.min a.lo b.lo;
      hi =
        (match (a.hi, b.hi) with
        | Some x, Some y -> Some (Stdlib.max x y)
        | _ -> None);
    }

  let consistent t =
    t.lo >= 0 && match t.hi with Some h -> t.lo <= h | None -> true

  let pp ppf t =
    match t.hi with
    | Some h when h = t.lo -> Format.fprintf ppf "[%d]" t.lo
    | Some h -> Format.fprintf ppf "[%d, %d]" t.lo h
    | None -> Format.fprintf ppf "[%d, inf)" t.lo
end

(* --- generic worklist fixed-point --------------------------------------- *)

module Fix = struct
  type 'a system = {
    nodes : string list;
    deps : string -> string list;
    init : string -> 'a;
    transfer : (string -> 'a) -> string -> 'a;
    equal : 'a -> 'a -> bool;
  }

  let ph_solve = Rthv_obs.Prof.phase "absint_fix"

  let solve sys =
    Rthv_obs.Prof.span (Rthv_obs.Prof.installed ()) ph_solve @@ fun () ->
    let values = Hashtbl.create 64 in
    List.iter (fun n -> Hashtbl.replace values n (sys.init n)) sys.nodes;
    let get n =
      match Hashtbl.find_opt values n with
      | Some v -> v
      | None -> failwith ("Absint.Fix: unknown node " ^ n)
    in
    (* Reverse dependency edges: who must re-run when a node changes. *)
    let rdeps = Hashtbl.create 64 in
    List.iter
      (fun n ->
        List.iter
          (fun d ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt rdeps d) in
            Hashtbl.replace rdeps d (prev @ [ n ]))
          (sys.deps n))
      sys.nodes;
    let queue = Queue.create () in
    let queued = Hashtbl.create 64 in
    let enqueue n =
      if not (Hashtbl.mem queued n) then begin
        Hashtbl.replace queued n ();
        Queue.add n queue
      end
    in
    List.iter enqueue sys.nodes;
    let budget = 1000 * (List.length sys.nodes + 1) in
    let steps = ref 0 in
    while not (Queue.is_empty queue) do
      let n = Queue.pop queue in
      Hashtbl.remove queued n;
      incr steps;
      if !steps > budget then
        failwith "Absint.Fix: fixed-point iteration diverged";
      let v' = sys.transfer get n in
      if not (sys.equal (get n) v') then begin
        Hashtbl.replace values n v';
        List.iter enqueue
          (Option.value ~default:[] (Hashtbl.find_opt rdeps n))
      end
    done;
    (* Convergence telemetry, mirroring the rthv_busy_window_* gauges. *)
    (match Rthv_obs.Registry.installed () with
    | Some reg ->
        let gauge name doc v =
          Rthv_obs.Registry.set_help reg name doc;
          Rthv_obs.Registry.set_gauge reg name (float_of_int v)
        in
        gauge "rthv_absint_steps"
          "Abstract-interpretation solver steps of the last run." !steps;
        gauge "rthv_absint_nodes"
          "Constraint-system nodes of the last abstract-interpretation run."
          (List.length sys.nodes)
    | None -> ());
    (get, !steps)
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
  iterations : int;
}

(* Comparable projections: facts strip every closure before entering the
   fixed-point, so structural equality is safe. *)
type value =
  | V_bot
  | V_source of source_fact
  | V_gate of bool
  | V_partition of partition_fact
  | V_util of (float * float option)

let value_equal a b = Stdlib.compare a b = 0

(* The closed-form long-term utilisation fold of RTHV004, verbatim — the
   linter's message must not change by a single byte across the Absint
   refactor. *)
let util_loss_closed_of config ~cycle ~eff =
  let source_loss (s : Config.source) =
    let monitor_loss fn =
      if degenerate fn then None
      else
        Some (Independence.utilisation_loss ~monitor:fn ~c_bh_eff:(eff s))
    in
    match s.Config.shaping with
    | Config.Token_bucket { refill; _ } ->
        Some (float_of_int (eff s) /. float_of_int refill)
    | Config.Budgeted { per_cycle } ->
        Some (float_of_int (per_cycle * eff s) /. float_of_int cycle)
    | Config.Monitor_and_bucket { fn; refill; _ } ->
        (* The admitted stream satisfies both components: the smaller
           long-term loss governs. *)
        let bucket = float_of_int (eff s) /. float_of_int refill in
        Some
          (match monitor_loss fn with
          | Some m -> Float.min m bucket
          | None -> bucket)
    | shaping -> (
        match static_condition shaping with
        | Some fn -> monitor_loss fn
        | None -> None)
  in
  ( List.fold_left
      (fun acc s -> acc +. Option.value ~default:0. (source_loss s))
      0. config.Config.sources,
    source_loss )

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
    match static_condition s.Config.shaping with
    | Some fn -> degenerate fn
    | None -> false
  in
  let active = shaped s && Array.length s.Config.interarrivals > 0 in
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
    List.map (fun (w, lo, hi) -> (w, { Itv.lo = lo * eff; hi })) per_window
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
    sf_per_instance = false (* the gate node decides *);
    sf_admissions = admissions;
    sf_interference = interference;
    sf_ceiling = ceiling;
    sf_util_loss = None (* filled from the closed fold below *);
    sf_workload_max_per_cycle = workload_max_per_cycle s ~cycle;
  }

let analyze config =
  let plan = Config.slot_plan config in
  let cycle = Rthv_core.Slot_plan.cycle_length plan in
  let c_ctx = Platform.ctx_switch_cost config.Config.platform in
  let slots = Rthv_core.Slot_plan.slots plan in
  let windows =
    List.sort_uniq Cycles.compare
      (cycle :: List.filter (fun s -> s > 0) (Array.to_list slots))
  in
  let eff (s : Config.source) =
    c_bh_eff ~platform:config.Config.platform ~c_bh:s.Config.c_bh
  in
  let util_loss_closed, source_loss = util_loss_closed_of config ~cycle ~eff in
  let sources = config.Config.sources in
  let partitions = config.Config.partitions in
  let src_node (s : Config.source) = "src:" ^ s.Config.name in
  let gate_node (s : Config.source) = "gate:" ^ s.Config.name in
  let part_node i = Printf.sprintf "part:%d" i in
  let src_nodes = List.map src_node sources in
  let nodes =
    src_nodes
    @ List.map gate_node sources
    @ List.mapi (fun i _ -> part_node i) partitions
    @ [ "sys:util" ]
  in
  let find_source name =
    List.find (fun (s : Config.source) -> "src:" ^ s.Config.name = name) sources
  in
  let deps n =
    if String.length n >= 4 && String.sub n 0 4 = "src:" then []
    else src_nodes
  in
  let source_facts get =
    List.map
      (fun s ->
        match get (src_node s) with
        | V_source f -> f
        | _ -> failwith "Absint: source node not ready")
      sources
  in
  let transfer get n =
    if String.length n >= 4 && String.sub n 0 4 = "src:" then
      V_source (source_fact config ~cycle ~windows (find_source n))
    else if String.length n >= 5 && String.sub n 0 5 = "gate:" then begin
      let name = String.sub n 5 (String.length n - 5) in
      let facts = source_facts get in
      let self = List.find (fun f -> f.sf_name = name) facts in
      let has_condition =
        match Bound.per_instance_condition self.sf_policy with
        | Some fn -> not (degenerate fn)
        | None -> false
      in
      let others_interpose =
        List.exists (fun f -> f.sf_name <> name && f.sf_active) facts
      in
      V_gate (has_condition && self.sf_active && not others_interpose)
    end
    else if String.length n >= 5 && String.sub n 0 5 = "part:" then begin
      let i = int_of_string (String.sub n 5 (String.length n - 5)) in
      let p = List.nth partitions i in
      let facts = source_facts get in
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
      V_partition
        {
          pf_index = i;
          pf_name = p.Config.pname;
          pf_declared = p.Config.slot;
          pf_slot = slot;
          pf_share = share;
          pf_task_util = task_util;
          pf_demand = task_util +. irq_demand;
          pf_interference = interference;
          pf_verdict = Unknown (* certificates refine this after the solve *);
        }
    end
    else begin
      (* sys:util — interference utilisation interval over one cycle. *)
      let facts = source_facts get in
      let lo =
        List.fold_left
          (fun acc f ->
            match List.assoc_opt cycle f.sf_interference with
            | Some itv -> acc +. (float_of_int itv.Itv.lo /. float_of_int cycle)
            | None -> acc)
          0. facts
      in
      let hi =
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
      V_util (lo, hi)
    end
  in
  let get, iterations =
    Fix.solve
      { Fix.nodes; deps; init = (fun _ -> V_bot); transfer; equal = value_equal }
  in
  let facts =
    List.map
      (fun s ->
        let f =
          match get (src_node s) with
          | V_source f -> f
          | _ -> failwith "Absint: unsolved source"
        in
        let gate =
          match get (gate_node s) with V_gate g -> g | _ -> false
        in
        { f with sf_per_instance = gate; sf_util_loss = source_loss s })
      sources
  in
  (* The grant-only certificate: exactly the RTHV005 proof obligation. *)
  let grants =
    List.filter_map
      (fun (s : Config.source) ->
        match static_condition s.Config.shaping with
        | Some fn when not (degenerate fn) ->
            Some
              {
                Certificate.source_name = s.Config.name;
                monitor = fn;
                c_bh_eff = eff s;
                subscriber = s.Config.subscriber;
              }
        | Some _ | None -> None)
      sources
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
  let partition_facts =
    List.mapi
      (fun i _ ->
        let pf =
          match get (part_node i) with
          | V_partition pf -> pf
          | _ -> failwith "Absint: unsolved partition"
        in
        let full_ok =
          Option.map
            (fun vs ->
              List.exists
                (fun (v : Certificate.verdict) ->
                  v.Certificate.v_index = i && v.Certificate.schedulable)
                vs)
            full_verdicts
        in
        let closed_ok =
          List.exists
            (fun (v : Certificate.verdict) ->
              v.Certificate.v_index = i && v.Certificate.schedulable)
            closed.Certificate.verdicts
        in
        let verdict =
          if pf.pf_share = 0. then Refuted
          else if pf.pf_demand > pf.pf_share +. 1e-9 then Refuted
          else
            match full_ok with
            | Some true -> Proved
            | Some false -> Refuted
            | None -> if closed_ok then Unknown else Refuted
        in
        { pf with pf_verdict = verdict })
      partitions
  in
  let util =
    match get "sys:util" with V_util u -> u | _ -> (0., None)
  in
  {
    cycle;
    c_ctx;
    windows;
    sources = facts;
    partitions = partition_facts;
    util_loss_closed;
    util;
    closed;
    full_verdicts;
    iterations;
  }
