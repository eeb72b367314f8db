module Cycles = Rthv_engine.Cycles
module Distance_fn = Rthv_analysis.Distance_fn

type shaping =
  | No_shaping
  | Fixed_monitor of Distance_fn.t
  | Self_learning of {
      l : int;
      learn_events : int;
      bound : Distance_fn.t option;
    }
  | Token_bucket of { capacity : int; refill : Cycles.t }
  | Budgeted of { per_cycle : int }
  | Monitor_and_bucket of {
      fn : Distance_fn.t;
      capacity : int;
      refill : Cycles.t;
    }

type arrival_mode = Reprogram | Absolute

type source = {
  name : string;
  line : int;
  subscriber : int;
  c_th : Cycles.t;
  c_bh : Cycles.t;
  interarrivals : Cycles.t array;
  arrival_mode : arrival_mode;
  shaping : shaping;
  activates : Rthv_rtos.Task.spec option;
}

type partition = {
  pname : string;
  slot : Cycles.t;
  tasks : Rthv_rtos.Task.spec list;
  busy_loop : bool;
  policy : Rthv_rtos.Guest.policy;
}

type plan_spec =
  | Partition_slots
  | Weighted_plan of { cycle : Cycles.t; weights : int array }

type t = {
  platform : Rthv_hw.Platform.t;
  partitions : partition list;
  sources : source list;
  ports : (string * int) list;
  boundary : Boundary_policy.t;
  plan : plan_spec;
}

let partition ~name ~slot_us ?(tasks = []) ?(busy_loop = true)
    ?(policy = Rthv_rtos.Guest.Fixed_priority) () =
  if slot_us <= 0 then invalid_arg "Config.partition: slot must be positive";
  { pname = name; slot = Cycles.of_us slot_us; tasks; busy_loop; policy }

let source ~name ~line ~subscriber ~c_th_us ~c_bh_us ~interarrivals
    ?(arrival_mode = Reprogram) ?(shaping = No_shaping) ?activates () =
  if c_th_us <= 0 || c_bh_us <= 0 then
    invalid_arg "Config.source: handler WCETs must be positive";
  {
    name;
    line;
    subscriber;
    c_th = Cycles.of_us c_th_us;
    c_bh = Cycles.of_us c_bh_us;
    interarrivals;
    arrival_mode;
    shaping;
    activates;
  }

let make ?(platform = Rthv_hw.Platform.arm926ejs_200mhz)
    ?finish_bh_at_boundary ?boundary ?(plan = Partition_slots) ?(ports = [])
    ~partitions ~sources () =
  let boundary =
    match (boundary, finish_bh_at_boundary) with
    | Some b, _ -> b
    | None, Some flag -> Boundary_policy.of_bool flag
    | None, None -> Boundary_policy.default
  in
  { platform; partitions; sources; ports; boundary; plan }

let finish_bh_at_boundary t = Boundary_policy.defers t.boundary

let slot_plan t =
  match t.plan with
  | Partition_slots ->
      Slot_plan.static (Array.of_list (List.map (fun p -> p.slot) t.partitions))
  | Weighted_plan { cycle; weights } -> Slot_plan.weighted ~cycle ~weights

let effective_slots t = Slot_plan.slots (slot_plan t)

let tdma t = Slot_plan.tdma (slot_plan t)

(* A monitoring condition is usable only if its entries are below the
   "no bound learned" sentinel Distance_fn.of_trace leaves in never-observed
   positions: the superadditive extension sums entries, so sentinel-sized
   values overflow the eq.-(14) arithmetic downstream. *)
let check_condition what fn =
  if Distance_fn.finite fn then Ok ()
  else
    Error
      (Printf.sprintf
         "%s contains unlearned (sentinel) entries: not a usable monitoring \
          condition"
         what)

let check_bucket ~capacity ~refill =
  if capacity < 1 then Error "bucket capacity must be >= 1"
  else if refill < 1 then Error "bucket refill must be >= 1"
  else Ok ()

let validate t =
  let n_partitions = List.length t.partitions in
  let check_source acc source =
    match acc with
    | Error _ as e -> e
    | Ok (lines, names) ->
        if source.subscriber < 0 || source.subscriber >= n_partitions then
          Error (Printf.sprintf "source %s: bad subscriber" source.name)
        else if source.line < 0 || source.line >= t.platform.Rthv_hw.Platform.intc_lines
        then Error (Printf.sprintf "source %s: line out of range" source.name)
        else if List.mem source.line lines then
          Error (Printf.sprintf "source %s: duplicate line %d" source.name source.line)
        else if List.mem source.name names then
          (* Policies, monitors, bounds and records are keyed by name. *)
          Error (Printf.sprintf "duplicate source name %S" source.name)
        else if source.c_th <= 0 || source.c_bh <= 0 then
          Error (Printf.sprintf "source %s: non-positive WCET" source.name)
        else if Array.exists (fun d -> d < 0) source.interarrivals then
          Error (Printf.sprintf "source %s: negative interarrival" source.name)
        else
          let shaping_ok =
            match source.shaping with
            | No_shaping -> Ok ()
            | Fixed_monitor fn -> check_condition "monitoring condition" fn
            | Token_bucket { capacity; refill } ->
                check_bucket ~capacity ~refill
            | Budgeted { per_cycle } ->
                if per_cycle < 1 then Error "budget must admit >= 1 per cycle"
                else Ok ()
            | Monitor_and_bucket { fn; capacity; refill } -> (
                match check_condition "monitoring condition" fn with
                | Error _ as e -> e
                | Ok () -> check_bucket ~capacity ~refill)
            | Self_learning { l; learn_events; bound } ->
                if l <= 0 then Error "l must be positive"
                else if learn_events < 0 then Error "negative learn_events"
                else (
                  match bound with
                  | Some b when Distance_fn.length b <> l ->
                      Error "bound length mismatch"
                  | Some b -> check_condition "load bound" b
                  | None -> Ok ())
          in
          (match shaping_ok with
          | Error msg ->
              Error (Printf.sprintf "source %s: %s" source.name msg)
          | Ok () -> Ok (source.line :: lines, source.name :: names))
  in
  let check_ports () =
    let rec unique = function
      | [] -> Ok ()
      | (name, capacity) :: rest ->
          if capacity <= 0 then
            Error (Printf.sprintf "port %S: capacity must be positive" name)
          else if List.mem_assoc name rest then
            Error (Printf.sprintf "duplicate port %S" name)
          else unique rest
    in
    match unique t.ports with
    | Error _ as e -> e
    | Ok () ->
        let declared = List.map fst t.ports in
        let missing =
          List.concat_map
            (fun p ->
              List.concat_map
                (fun (task : Rthv_rtos.Task.spec) ->
                  List.filter
                    (fun port -> not (List.mem port declared))
                    (List.filter_map Fun.id
                       [ task.Rthv_rtos.Task.produces; task.Rthv_rtos.Task.consumes ]))
                p.tasks)
            t.partitions
        in
        (match missing with
        | [] -> Ok ()
        | port :: _ -> Error (Printf.sprintf "undeclared port %S" port))
  in
  (* Every time in a run is below a multiple of the TDMA cycle, so its
     length must be an int, and so must a weighted plan's apportionment
     products (cycle times weight sum). *)
  let sum xs =
    List.fold_left
      (fun acc x ->
        match acc with Some s when x <= max_int - s -> Some (s + x) | _ -> None)
      (Some 0) xs
  in
  let check_plan () =
    match t.plan with
    | Partition_slots ->
        if sum (List.map (fun p -> p.slot) t.partitions) = None then
          Error "TDMA cycle length overflows"
        else Ok ()
    | Weighted_plan { cycle; weights } ->
        if Array.length weights <> n_partitions then
          Error
            (Printf.sprintf
               "weighted plan has %d weights for %d partitions"
               (Array.length weights) n_partitions)
        else if Array.exists (fun w -> w <= 0) weights then
          Error "weighted plan: non-positive weight"
        else if cycle < n_partitions then
          Error "weighted plan: cycle shorter than one cycle per partition"
        else (
          match sum (Array.to_list weights) with
          | Some total when cycle <= max_int / total -> Ok ()
          | _ -> Error "weighted plan: cycle times weight sum overflows")
  in
  if n_partitions = 0 then Error "no partitions"
  else
    match check_plan () with
    | Error _ as e -> e
    | Ok () -> (
        match List.fold_left check_source (Ok ([], [])) t.sources with
        | Error _ as e -> e
        | Ok _ -> check_ports ())
