module Cycles = Rthv_engine.Cycles

type policy = Fixed_priority | Edf

type demand =
  | Bottom_handler of Irq_queue.item
  | Task_job of Task.job
  | Filler
  | Idle

type task_state = {
  spec : Task.spec;
  mutable next_index : int;
  out_port : Ipc.port option;
  in_port : Ipc.port option;
}

type t = {
  name : string;
  queue : Irq_queue.t;
  busy_loop : bool;
  policy : policy;
  tasks : task_state array;
  mutable aperiodic_count : int;
  mutable ready : Task.job list;
  mutable completions : Task.completion list;  (* newest first *)
  mutable cpu_time : Cycles.t;
  mutable idle_time : Cycles.t;
  mutable horizon : Cycles.t;  (* last advance_to time, for monotonicity *)
  mutable retain : bool;  (* keep task completions (off for streaming runs) *)
}

let resolve_port ipc ~guest ~task = function
  | None -> None
  | Some port_name -> (
      match ipc with
      | None ->
          invalid_arg
            (Printf.sprintf
               "Guest.create: task %s of %s uses port %S but no IPC registry \
                was supplied"
               task guest port_name)
      | Some registry -> (
          match Ipc.find registry port_name with
          | port -> Some port
          | exception Not_found ->
              invalid_arg
                (Printf.sprintf "Guest.create: port %S is not declared"
                   port_name)))

let create ?(tasks = []) ?(busy_loop = true) ?ipc ?(policy = Fixed_priority)
    ~name () =
  {
    name;
    queue = Irq_queue.create ();
    busy_loop;
    policy;
    tasks =
      Array.of_list
        (List.map
           (fun (spec : Task.spec) ->
             {
               spec;
               next_index = 0;
               out_port =
                 resolve_port ipc ~guest:name ~task:spec.Task.name
                   spec.Task.produces;
               in_port =
                 resolve_port ipc ~guest:name ~task:spec.Task.name
                   spec.Task.consumes;
             })
           tasks);
    aperiodic_count = 0;
    ready = [];
    completions = [];
    cpu_time = 0;
    idle_time = 0;
    horizon = 0;
    retain = true;
  }

let name t = t.name
let queue t = t.queue
let busy_loop t = t.busy_loop
let has_tasks t = Array.length t.tasks > 0
let set_retain t retain = t.retain <- retain

let release_aperiodic t ~spec ~now =
  let job =
    {
      Task.task = spec;
      index = t.aperiodic_count;
      release = now;
      remaining = spec.Task.wcet;
    }
  in
  t.aperiodic_count <- t.aperiodic_count + 1;
  t.ready <- job :: t.ready

let release_time state index =
  Cycles.( + ) state.spec.Task.offset (Cycles.( * ) state.spec.Task.period index)

let advance_to t time =
  if time < t.horizon then
    invalid_arg "Guest.advance_to: time must be non-decreasing";
  t.horizon <- time;
  for i = 0 to Array.length t.tasks - 1 do
    let state = t.tasks.(i) in
    let due = ref (release_time state state.next_index) in
    while !due <= time do
      let job =
        {
          Task.task = state.spec;
          index = state.next_index;
          release = !due;
          remaining = state.spec.Task.wcet;
        }
      in
      t.ready <- job :: t.ready;
      state.next_index <- state.next_index + 1;
      due := release_time state state.next_index
    done
  done

let next_release_before t limit =
  let next = ref limit in
  for i = 0 to Array.length t.tasks - 1 do
    let state = t.tasks.(i) in
    next := Cycles.min !next (release_time state state.next_index)
  done;
  !next

let next_release t =
  if Array.length t.tasks = 0 then None
  else Some (next_release_before t max_int)

(* Fixed priority: lowest priority number wins; EDF: earliest implicit
   deadline (release + period) wins.  Ties broken by earliest release, then
   by job index, for determinism. *)
let job_precedes policy (a : Task.job) (b : Task.job) =
  let primary =
    match policy with
    | Fixed_priority ->
        compare a.Task.task.Task.priority b.Task.task.Task.priority
    | Edf ->
        compare
          (Cycles.( + ) a.Task.release a.Task.task.Task.period)
          (Cycles.( + ) b.Task.release b.Task.task.Task.period)
  in
  if primary <> 0 then primary < 0
  else if a.Task.release <> b.Task.release then a.Task.release < b.Task.release
  else a.Task.index < b.Task.index

let rec best_job policy best = function
  | [] -> best
  | job :: rest ->
      best_job policy (if job_precedes policy job best then job else best) rest

let has_ready t = match t.ready with [] -> false | _ :: _ -> true

let pick_ready t =
  match t.ready with
  | [] -> raise Not_found
  | first :: rest -> best_job t.policy first rest

let demand t =
  match Irq_queue.peek t.queue with
  | Some item -> Bottom_handler item
  | None ->
      if has_ready t then Task_job (pick_ready t)
      else if t.busy_loop then Filler
      else Idle

let consume_bottom t ~elapsed item =
  if elapsed < 0 then invalid_arg "Guest.consume: negative elapsed";
  if elapsed > item.Irq_queue.remaining then
    invalid_arg "Guest.consume: over-attribution to bottom handler";
  item.Irq_queue.remaining <- Cycles.( - ) item.Irq_queue.remaining elapsed;
  t.cpu_time <- Cycles.( + ) t.cpu_time elapsed;
  if item.Irq_queue.remaining = 0 then
    ignore (Irq_queue.drop_head t.queue : Irq_queue.item)

(* Index of the first periodic task whose spec is [spec], or -1 (an
   aperiodic job's spec need not belong to a periodic task). *)
let rec state_index t spec i =
  if i = Array.length t.tasks then -1
  else if t.tasks.(i).spec == spec then i
  else state_index t spec (i + 1)

(* [ready] without [job] (physical equality); shares the tail after it. *)
let rec without job = function
  | [] -> []
  | j :: rest -> if j == job then rest else j :: without job rest

let consume_task t ~now ~elapsed job =
  if elapsed < 0 then invalid_arg "Guest.consume: negative elapsed";
  if elapsed > job.Task.remaining then
    invalid_arg "Guest.consume: over-attribution to task job";
  job.Task.remaining <- Cycles.( - ) job.Task.remaining elapsed;
  t.cpu_time <- Cycles.( + ) t.cpu_time elapsed;
  if job.Task.remaining = 0 then begin
    t.ready <- without job t.ready;
    let completion =
      {
        Task.job_task = job.Task.task.Task.name;
        job_index = job.Task.index;
        released = job.Task.release;
        finished = now;
      }
    in
    if t.retain then t.completions <- completion :: t.completions;
    (* Hypervisor-mediated IPC: a completing job first drains its input
       port, then publishes its own output. *)
    let i = state_index t job.Task.task 0 in
    if i >= 0 then begin
      let state = t.tasks.(i) in
      (match state.in_port with
      | Some port -> ignore (Ipc.receive_all port ~now : Ipc.message list)
      | None -> ());
      match state.out_port with
      | Some port ->
          ignore (Ipc.send port ~now ~sender:job.Task.task.Task.name : bool)
      | None -> ()
    end
  end

let consume_filler t ~elapsed =
  if elapsed < 0 then invalid_arg "Guest.consume: negative elapsed";
  t.cpu_time <- Cycles.( + ) t.cpu_time elapsed

let consume_idle t ~elapsed =
  if elapsed < 0 then invalid_arg "Guest.consume: negative elapsed";
  t.idle_time <- Cycles.( + ) t.idle_time elapsed

let consume t ~now ~elapsed demand =
  match demand with
  | Bottom_handler item -> consume_bottom t ~elapsed item
  | Task_job job -> consume_task t ~now ~elapsed job
  | Filler -> consume_filler t ~elapsed
  | Idle -> consume_idle t ~elapsed

let take_completions t =
  let out = List.rev t.completions in
  t.completions <- [];
  out

let cpu_time t = t.cpu_time
let idle_time t = t.idle_time
let backlog t = List.length t.ready
