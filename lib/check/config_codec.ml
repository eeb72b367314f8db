module Cycles = Rthv_engine.Cycles
module Platform = Rthv_hw.Platform
module Config = Rthv_core.Config
module Task = Rthv_rtos.Task
module DF = Rthv_analysis.Distance_fn
module J = Rthv_obs.Json

let cycles arr = J.List (Array.to_list (Array.map (fun c -> J.Int c) arr))

let platform_name (p : Platform.t) =
  if p = Platform.arm926ejs_200mhz then Ok "arm926ejs_200mhz"
  else if p = Platform.ideal then Ok "ideal"
  else Error "unnamed platform: only the named platforms serialize"

let platform_of_name = function
  | "arm926ejs_200mhz" -> Ok Platform.arm926ejs_200mhz
  | "ideal" -> Ok Platform.ideal
  | name -> Error (Printf.sprintf "unknown platform %S" name)

let shaping_to_json (s : Config.shaping) =
  let kind k rest = J.Obj (("kind", J.String k) :: rest) in
  match s with
  | Config.No_shaping -> kind "none" []
  | Config.Fixed_monitor fn -> kind "fixed_monitor" [ ("delta", cycles (DF.entries fn)) ]
  | Config.Self_learning { l; learn_events; bound } ->
      kind "self_learning"
        [
          ("l", J.Int l);
          ("learn_events", J.Int learn_events);
          ( "bound",
            match bound with
            | Some fn -> cycles (DF.entries fn)
            | None -> J.Null );
        ]
  | Config.Token_bucket { capacity; refill } ->
      kind "token_bucket" [ ("capacity", J.Int capacity); ("refill", J.Int refill) ]
  | Config.Budgeted { per_cycle } -> kind "budgeted" [ ("per_cycle", J.Int per_cycle) ]
  | Config.Monitor_and_bucket { fn; capacity; refill } ->
      kind "monitor_and_bucket"
        [
          ("delta", cycles (DF.entries fn));
          ("capacity", J.Int capacity);
          ("refill", J.Int refill);
        ]

let task_to_json (t : Task.spec) =
  J.Obj
    [
      ("name", J.String t.Task.name);
      ("period", J.Int t.Task.period);
      ("wcet", J.Int t.Task.wcet);
      ("priority", J.Int t.Task.priority);
      ("offset", J.Int t.Task.offset);
    ]

let partition_to_json (p : Config.partition) =
  J.Obj
    [
      ("name", J.String p.Config.pname);
      ("slot", J.Int p.Config.slot);
      ("busy_loop", J.Bool p.Config.busy_loop);
      ( "policy",
        J.String
          (match p.Config.policy with
          | Rthv_rtos.Guest.Fixed_priority -> "fixed_priority"
          | Rthv_rtos.Guest.Edf -> "edf") );
      ("tasks", J.List (List.map task_to_json p.Config.tasks));
    ]

let source_to_json (s : Config.source) =
  J.Obj
    [
      ("name", J.String s.Config.name);
      ("line", J.Int s.Config.line);
      ("subscriber", J.Int s.Config.subscriber);
      ("c_th", J.Int s.Config.c_th);
      ("c_bh", J.Int s.Config.c_bh);
      ( "arrival_mode",
        J.String
          (match s.Config.arrival_mode with
          | Config.Reprogram -> "reprogram"
          | Config.Absolute -> "absolute") );
      ("interarrivals", cycles s.Config.interarrivals);
      ("shaping", shaping_to_json s.Config.shaping);
    ]

let plan_to_json (p : Config.plan_spec) =
  match p with
  | Config.Partition_slots -> J.Obj [ ("kind", J.String "partition_slots") ]
  | Config.Weighted_plan { cycle; weights } ->
      J.Obj
        [
          ("kind", J.String "weighted");
          ("cycle", J.Int cycle);
          ("weights", J.List (Array.to_list (Array.map (fun w -> J.Int w) weights)));
        ]

let unsupported (config : Config.t) =
  if config.Config.ports <> [] then Some "ports do not serialize"
  else if
    List.exists (fun (s : Config.source) -> s.Config.activates <> None)
      config.Config.sources
  then Some "task-activating sources do not serialize"
  else if
    List.exists
      (fun (p : Config.partition) ->
        List.exists
          (fun (t : Task.spec) ->
            t.Task.produces <> None || t.Task.consumes <> None)
          p.Config.tasks)
      config.Config.partitions
  then Some "IPC-connected tasks do not serialize"
  else None

let to_json (config : Config.t) =
  match (platform_name config.Config.platform, unsupported config) with
  | Error e, _ | _, Some e -> Error e
  | Ok platform, None ->
      Ok
        (J.Obj
           [
             ("platform", J.String platform);
             ( "boundary",
               J.String
                 (match config.Config.boundary with
                 | Rthv_core.Boundary_policy.Finish_bottom_handler ->
                     "finish_bottom_handler"
                 | Rthv_core.Boundary_policy.Strict_cut -> "strict_cut") );
             ("plan", plan_to_json config.Config.plan);
             ( "partitions",
               J.List (List.map partition_to_json config.Config.partitions) );
             ("sources", J.List (List.map source_to_json config.Config.sources));
           ])

let to_string config = Result.map J.to_string (to_json config)

(* --- decoding ------------------------------------------------------------ *)

let ( let* ) = Result.bind

let field name json =
  match J.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let opt_field name json = J.member name json

let as_int ~what v =
  match J.to_int v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s: expected an integer" what)

let as_str ~what v =
  match J.to_str v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "%s: expected a string" what)

let as_list ~what v =
  match J.to_list v with
  | Some l -> Ok l
  | None -> Error (Printf.sprintf "%s: expected a list" what)

let as_bool ~what = function
  | J.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "%s: expected a boolean" what)

let int_field ~what name json =
  let* v = field name json in
  as_int ~what:(what ^ "." ^ name) v

let str_field ~what name json =
  let* v = field name json in
  as_str ~what:(what ^ "." ^ name) v

let cycles_of ~what v =
  let* l = as_list ~what v in
  let* ints =
    List.fold_left
      (fun acc v ->
        let* acc = acc in
        let* i = as_int ~what v in
        Ok (i :: acc))
      (Ok []) l
  in
  Ok (Array.of_list (List.rev ints))

(* A δ⁻ condition needs at least one entry; an empty list is a decode
   error naming the field, not an exception out of [DF.of_entries]. *)
let distance_fn_of ~what v =
  let* entries = cycles_of ~what v in
  if Array.length entries = 0 then
    Error (Printf.sprintf "%s: expected a non-empty list" what)
  else Ok (DF.of_entries entries)

let map_all ~what f l =
  List.fold_left
    (fun acc v ->
      let* acc = acc in
      let* x = f v in
      Ok (x :: acc))
    (Ok []) l
  |> Result.map List.rev
  |> Result.map_error (fun e -> what ^ ": " ^ e)

let shaping_of_json json =
  let* kind = str_field ~what:"shaping" "kind" json in
  match kind with
  | "none" -> Ok Config.No_shaping
  | "fixed_monitor" ->
      let* delta = field "delta" json in
      let* fn = distance_fn_of ~what:"shaping.delta" delta in
      Ok (Config.Fixed_monitor fn)
  | "self_learning" ->
      let* l = int_field ~what:"shaping" "l" json in
      let* learn_events = int_field ~what:"shaping" "learn_events" json in
      let* bound =
        match opt_field "bound" json with
        | None | Some J.Null -> Ok None
        | Some v ->
            let* fn = distance_fn_of ~what:"shaping.bound" v in
            Ok (Some fn)
      in
      Ok (Config.Self_learning { l; learn_events; bound })
  | "token_bucket" ->
      let* capacity = int_field ~what:"shaping" "capacity" json in
      let* refill = int_field ~what:"shaping" "refill" json in
      Ok (Config.Token_bucket { capacity; refill })
  | "budgeted" ->
      let* per_cycle = int_field ~what:"shaping" "per_cycle" json in
      Ok (Config.Budgeted { per_cycle })
  | "monitor_and_bucket" ->
      let* delta = field "delta" json in
      let* fn = distance_fn_of ~what:"shaping.delta" delta in
      let* capacity = int_field ~what:"shaping" "capacity" json in
      let* refill = int_field ~what:"shaping" "refill" json in
      Ok (Config.Monitor_and_bucket { fn; capacity; refill })
  | kind -> Error (Printf.sprintf "unknown shaping kind %S" kind)

let task_of_json json =
  let* name = str_field ~what:"task" "name" json in
  let* period = int_field ~what:"task" "period" json in
  let* wcet = int_field ~what:"task" "wcet" json in
  let* priority = int_field ~what:"task" "priority" json in
  let* offset = int_field ~what:"task" "offset" json in
  Ok
    {
      Task.name;
      period;
      wcet;
      priority;
      offset;
      produces = None;
      consumes = None;
    }

let partition_of_json json =
  let* pname = str_field ~what:"partition" "name" json in
  let* slot = int_field ~what:"partition" "slot" json in
  let* busy_loop =
    match opt_field "busy_loop" json with
    | None -> Ok false
    | Some v -> as_bool ~what:"partition.busy_loop" v
  in
  let* policy =
    match opt_field "policy" json with
    | None -> Ok Rthv_rtos.Guest.Fixed_priority
    | Some v -> (
        let* s = as_str ~what:"partition.policy" v in
        match s with
        | "fixed_priority" -> Ok Rthv_rtos.Guest.Fixed_priority
        | "edf" -> Ok Rthv_rtos.Guest.Edf
        | s -> Error (Printf.sprintf "unknown guest policy %S" s))
  in
  let* tasks =
    match opt_field "tasks" json with
    | None -> Ok []
    | Some v ->
        let* l = as_list ~what:"partition.tasks" v in
        map_all ~what:"partition.tasks" task_of_json l
  in
  Ok { Config.pname; slot; tasks; busy_loop; policy }

let source_of_json json =
  let* name = str_field ~what:"source" "name" json in
  let* line = int_field ~what:"source" "line" json in
  let* subscriber = int_field ~what:"source" "subscriber" json in
  let* c_th = int_field ~what:"source" "c_th" json in
  let* c_bh = int_field ~what:"source" "c_bh" json in
  let* arrival_mode =
    match opt_field "arrival_mode" json with
    | None -> Ok Config.Reprogram
    | Some v -> (
        let* s = as_str ~what:"source.arrival_mode" v in
        match s with
        | "reprogram" -> Ok Config.Reprogram
        | "absolute" -> Ok Config.Absolute
        | s -> Error (Printf.sprintf "unknown arrival mode %S" s))
  in
  let* interarrivals =
    let* v = field "interarrivals" json in
    cycles_of ~what:"source.interarrivals" v
  in
  let* shaping =
    match opt_field "shaping" json with
    | None -> Ok Config.No_shaping
    | Some v -> shaping_of_json v
  in
  Ok
    {
      Config.name;
      line;
      subscriber;
      c_th;
      c_bh;
      interarrivals;
      arrival_mode;
      shaping;
      activates = None;
    }

let plan_of_json json =
  let* kind = str_field ~what:"plan" "kind" json in
  match kind with
  | "partition_slots" -> Ok Config.Partition_slots
  | "weighted" ->
      let* cycle = int_field ~what:"plan" "cycle" json in
      let* weights = field "weights" json in
      let* arr = cycles_of ~what:"plan.weights" weights in
      Ok (Config.Weighted_plan { cycle; weights = arr })
  | kind -> Error (Printf.sprintf "unknown plan kind %S" kind)

let of_json json =
  let* platform =
    let* name = str_field ~what:"config" "platform" json in
    platform_of_name name
  in
  let* boundary =
    match opt_field "boundary" json with
    | None -> Ok Rthv_core.Boundary_policy.default
    | Some v -> (
        let* s = as_str ~what:"config.boundary" v in
        match s with
        | "finish_bottom_handler" ->
            Ok Rthv_core.Boundary_policy.Finish_bottom_handler
        | "strict_cut" -> Ok Rthv_core.Boundary_policy.Strict_cut
        | s -> Error (Printf.sprintf "unknown boundary policy %S" s))
  in
  let* plan =
    match opt_field "plan" json with
    | None -> Ok Config.Partition_slots
    | Some v -> plan_of_json v
  in
  let* partitions =
    let* v = field "partitions" json in
    let* l = as_list ~what:"config.partitions" v in
    map_all ~what:"config.partitions" partition_of_json l
  in
  let* sources =
    match opt_field "sources" json with
    | None -> Ok []
    | Some v ->
        let* l = as_list ~what:"config.sources" v in
        map_all ~what:"config.sources" source_of_json l
  in
  Ok { Config.platform; partitions; sources; ports = []; boundary; plan }

let of_string s =
  let* json = J.parse s in
  of_json json
