(* Façade over the policy-core layers: construction ({!Admission},
   {!Slot_plan}, {!Boundary_policy} instances from a {!Config}), the
   event-compressed simulation loop, and the public read API.  Routing
   decisions live in {!Sim_route}, boundary handling in {!Sim_boundary},
   state and accounting in {!Sim_state}, statistics in {!Sim_stats}.

   The loop jumps segment to segment over the packed
   {!Rthv_engine.Event_arena}: each segment runs the current context
   (hypervisor ring, then a live interposition, then the slot owner) up to
   its work's completion or the next external event, whichever comes
   first.  Hypervisor bursts drain inline.  Without a trace (which an
   installed registry implies) or task activation, the per-IRQ path of a
   streaming ([retain=false]) run allocates nothing;
   [test_streaming_run_allocation] in test/test_hyp_sim.ml pins it at <= 2
   minor words per IRQ.  A retained run allocates what it keeps: each
   IRQ's record.

   Telemetry is a fold over the trace: when a registry is installed,
   [create] attaches {!Sim_metrics} to the trace's spill hooks. *)

module Cycles = Rthv_engine.Cycles
module Event_arena = Rthv_engine.Event_arena
module Guest = Rthv_rtos.Guest
module Ipc = Rthv_rtos.Ipc
module Irq_queue = Rthv_rtos.Irq_queue
module Task = Rthv_rtos.Task
module Platform = Rthv_hw.Platform
module Intc = Rthv_hw.Intc
open Sim_state

type t = Sim_state.t

type stats = Sim_stats.t = {
  completed_irqs : int;
  direct : int;
  interposed : int;
  delayed : int;
  slot_switches : int;
  interposition_switches : int;
  interpositions_started : int;
  boundary_crossings : int;
  bh_boundary_deferrals : int;
  monitor_checks : int;
  admissions : int;
  denials : int;
  coalesced_irqs : int;
  stolen_total : Cycles.t array;
  stolen_slot_max : Cycles.t array;
  sim_time : Cycles.t;
}

(* Opt-in audit: while a hook is installed, [create] hands it each new
   simulation's configuration and trace (attaching a small ring when there
   is none); the hook attaches its fold to the trace and returns the ruling,
   which [run] calls once the run finishes.  The trace-invariant oracle of
   [Rthv_check] installs itself here so whole test suites run audited
   without touching each call site. *)
let audit_hook : (Config.t -> Hyp_trace.t -> unit -> unit) option ref =
  ref None

let set_audit_hook hook = audit_hook := hook
let audit_hook_installed () = Option.is_some !audit_hook

let create ?trace ?(policies = []) ?(retain = true) config =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Hyp_sim.create: " ^ msg));
  List.iter
    (fun (name, _) ->
      if
        not
          (List.exists
             (fun (s : Config.source) -> s.Config.name = name)
             config.Config.sources)
      then invalid_arg ("Hyp_sim.create: policy for unknown source " ^ name))
    policies;
  let platform = config.Config.platform in
  let plan = Config.slot_plan config in
  let tdma = Slot_plan.tdma plan in
  let cycle = Slot_plan.cycle_length plan in
  let ipc = Ipc.create () in
  List.iter
    (fun (name, capacity) -> ignore (Ipc.declare ipc ~name ~capacity : Ipc.port))
    config.Config.ports;
  let guests =
    Array.of_list
      (List.map
         (fun (p : Config.partition) ->
           Guest.create ~tasks:p.Config.tasks ~busy_loop:p.Config.busy_loop
             ~ipc ~policy:p.Config.policy ~name:p.Config.pname ())
         config.Config.partitions)
  in
  if not retain then Array.iter (fun g -> Guest.set_retain g false) guests;
  let sources =
    Array.of_list
      (List.mapi
         (fun s_idx (cfg : Config.source) ->
           {
             cfg;
             s_idx;
             admission =
               (match List.assoc_opt cfg.Config.name policies with
               | Some p -> p
               | None -> Admission.of_shaping ~cycle cfg.Config.shaping);
             next_arrival = 0;
           })
         config.Config.sources)
  in
  let intc = Intc.create ~lines:platform.Platform.intc_lines in
  let source_by_line = Array.make platform.Platform.intc_lines None in
  Array.iter
    (fun src -> source_by_line.(src.cfg.Config.line) <- Some src)
    sources;
  let activation_specs =
    Array.to_list sources
    |> List.filter_map (fun src -> src.cfg.Config.activates)
  in
  let n = Array.length guests in
  let slot = Tdma.slot () in
  Tdma.locate tdma 0 slot;
  let registry = Rthv_obs.Registry.installed () in
  let trace =
    match trace with
    | Some _ -> trace
    | None ->
        (* The flight recorder wants the last N events of every run
           available for a post-mortem dump; the metrics and audit folds
           read the events through the ring's spill hook. *)
        if Flight_recorder.enabled () then
          Some (Hyp_trace.create ~capacity:(Flight_recorder.capacity ()) ())
        else if Option.is_some registry || Option.is_some !audit_hook then
          (* One minor-heap block: the folds, not the ring, keep the run. *)
          Some (Hyp_trace.create ~capacity:256 ())
        else None
  in
  let metrics =
    match (registry, trace) with
    | Some reg, Some trace -> Some (Sim_metrics.attach reg config trace)
    | _ -> None
  in
  let audit =
    match (!audit_hook, trace) with
    | Some hook, Some trace -> Some (hook config trace)
    | _ -> None
  in
  let hq_cap = 16 and pf_cap = 64 in
  let t =
    {
      platform;
      config;
      boundary = config.Config.boundary;
      trace;
      metrics;
      audit;
      prof = Rthv_obs.Prof.disabled;
      tdma;
      ipc;
      guests;
      sources;
      source_by_line;
      intc;
      events = Event_arena.create ();
      hq_kind = Array.make hq_cap K_slot_switch;
      hq_remaining = Array.make hq_cap 0;
      hq_started = Array.make hq_cap false;
      hq_irq = Array.make hq_cap (-1);
      hq_head = 0;
      hq_len = 0;
      pf_irq = Array.make pf_cap (-1);
      pf_source = Array.make pf_cap 0;
      pf_arrival = Array.make pf_cap 0;
      pf_top_start = Array.make pf_cap 0;
      pf_top_end = Array.make pf_cap 0;
      pf_bh_start = Array.make pf_cap 0;
      pf_class = Array.make pf_cap Irq_record.Delayed;
      c_mon = Platform.monitor_cost platform;
      c_sched = Platform.sched_manip_cost platform;
      c_ctx = Platform.ctx_switch_cost platform;
      now = 0;
      ip_target = -1;
      ip_budget = 0;
      interposition_pending = false;
      retain_records = retain;
      records = (if retain then Array.make pf_cap no_record else [||]);
      item_pool = [||];
      item_pool_len = 0;
      n_completed = 0;
      next_irq_id = 0;
      slot;
      stolen_in_slot = 0;
      stolen_total = Array.make n 0;
      stolen_slot_max = Array.make n 0;
      activation_specs;
      scheduled_arrivals = 0;
      live_irqs = 0;
      live_aperiodic = 0;
      slot_switches = 0;
      interposition_switches = 0;
      interpositions_started = 0;
      boundary_crossings = 0;
      bh_boundary_deferrals = 0;
      admissions = 0;
      denials = 0;
      n_direct = 0;
      n_interposed = 0;
      n_delayed = 0;
      finished = false;
    }
  in
  Intc.set_handler intc (Sim_route.deliver t);
  Event_arena.push t.events ~time:slot.Tdma.slot_end ev_boundary;
  Array.iter
    (fun src ->
      let distances = src.cfg.Config.interarrivals in
      if Array.length distances > 0 then begin
        match src.cfg.Config.arrival_mode with
        | Config.Reprogram ->
            src.next_arrival <- 1;
            Event_arena.push t.events ~time:distances.(0) src.s_idx;
            t.scheduled_arrivals <- t.scheduled_arrivals + 1
        | Config.Absolute ->
            (* Trace replay: schedule every raise up front at its absolute
               time; coalescing on a pending line is then possible. *)
            let time = ref 0 in
            Array.iter
              (fun d ->
                time := Cycles.( + ) !time d;
                Event_arena.push t.events ~time:!time src.s_idx;
                t.scheduled_arrivals <- t.scheduled_arrivals + 1)
              distances;
            src.next_arrival <- Array.length distances
      end)
    sources;
  t

(* First cycle ever attributed to this instance's bottom handler: record
   the span timestamp and trace event at the segment start.  This runs as
   the first action after [t.now] advances, so the retro-dated start time
   is still >= every previously recorded trace timestamp. *)
let note_bh_start t (item : Irq_queue.item) elapsed =
  if item.Irq_queue.remaining = item.Irq_queue.total then begin
    let irq = item.Irq_queue.irq in
    let i = pending_slot t irq in
    if t.pf_irq.(i) = irq && t.pf_bh_start.(i) < 0 then begin
      let start = Cycles.( - ) t.now elapsed in
      t.pf_bh_start.(i) <- start;
      if tracing t then
        trace_event_at t start
          (Hyp_trace.Bottom_handler_start
             {
               irq;
               partition = t.sources.(t.pf_source.(i)).cfg.Config.subscriber;
             })
    end
  end

(* Deliver all external events due now, in schedule order. *)
let drain t =
  while Event_arena.head_time t.events <= t.now do
    assert (Event_arena.head_time t.events = t.now);
    let payload = Event_arena.head_payload t.events in
    Event_arena.drop t.events;
    Prof.enter t.prof ph_dispatch;
    if payload = ev_boundary then Sim_boundary.handle_boundary t
    else Sim_route.handle_arrival t payload;
    Prof.leave t.prof
  done

(* One segment of the hypervisor work item at the ring head: run it until
   it finishes or the next external event, whichever comes first. *)
let hyp_item_step t =
  let i = t.hq_head in
  let kind = t.hq_kind.(i) in
  let irq = t.hq_irq.(i) in
  let remaining = t.hq_remaining.(i) in
  let seg_end =
    let fin = Cycles.( + ) t.now remaining in
    let ne = Event_arena.head_time t.events in
    if fin < ne then fin else ne
  in
  assert (seg_end >= t.now);
  let elapsed = Cycles.( - ) seg_end t.now in
  t.now <- seg_end;
  if not t.hq_started.(i) then begin
    t.hq_started.(i) <- true;
    Sim_route.hyp_start t kind irq (Cycles.( - ) t.now elapsed)
  end;
  let remaining' = Cycles.( - ) remaining elapsed in
  t.hq_remaining.(i) <- remaining';
  if k_steals kind then steal t elapsed;
  if remaining' = 0 then begin
    hyp_pop t;
    Sim_route.hyp_done t kind irq
  end;
  drain t

(* The three-way context resolution: hypervisor ring first, then a live
   interposition, then the slot owner.  [run] inlines it; an interposition
   that ends before doing any work re-enters here. *)
let rec step t =
  if t.hq_len > 0 then hyp_item_step t
  else if t.ip_target >= 0 then interp_step t
  else partition_step t

and interp_step t =
  let guest = t.guests.(t.ip_target) in
  let queue = Guest.queue guest in
  if Irq_queue.is_empty queue || t.ip_budget <= 0 then begin
    (* Queue drained (or budget already zero): return to the slot owner. *)
    let reason =
      if t.ip_budget > 0 then `Queue_empty else `Budget_exhausted
    in
    end_interposition t ~reason;
    step t
  end
  else begin
    let item = Irq_queue.head queue in
    let seg_end =
      let work = Cycles.min item.Irq_queue.remaining t.ip_budget in
      let fin = Cycles.( + ) t.now work in
      let ne = Event_arena.head_time t.events in
      if fin < ne then fin else ne
    in
    assert (seg_end >= t.now);
    let elapsed = Cycles.( - ) seg_end t.now in
    t.now <- seg_end;
    note_bh_start t item elapsed;
    t.ip_budget <- Cycles.( - ) t.ip_budget elapsed;
    steal t elapsed;
    Guest.consume_bottom guest ~elapsed item;
    if item.Irq_queue.remaining = 0 then finalize_completion t item;
    if t.ip_budget = 0 && t.ip_target >= 0 then
      end_interposition t ~reason:`Budget_exhausted;
    drain t
  end

and partition_step t =
  let guest = t.guests.(t.slot.Tdma.owner) in
  let slot_end = t.slot.Tdma.slot_end in
  let release_bound =
    if not (Guest.has_tasks guest) then slot_end
    else begin
      Guest.advance_to guest t.now;
      Guest.next_release_before guest slot_end
    end
  in
  let ne = Event_arena.head_time t.events in
  let queue = Guest.queue guest in
  if not (Irq_queue.is_empty queue) then begin
    let item = Irq_queue.head queue in
    let seg_end =
      let fin = Cycles.( + ) t.now item.Irq_queue.remaining in
      Cycles.min (Cycles.min fin release_bound) ne
    in
    assert (seg_end >= t.now);
    let elapsed = Cycles.( - ) seg_end t.now in
    t.now <- seg_end;
    note_bh_start t item elapsed;
    Guest.consume_bottom guest ~elapsed item;
    if item.Irq_queue.remaining = 0 then finalize_completion t item;
    drain t
  end
  else if Guest.has_ready guest then begin
    let job = Guest.pick_ready guest in
    let seg_end =
      let fin = Cycles.( + ) t.now job.Task.remaining in
      Cycles.min (Cycles.min fin release_bound) ne
    in
    assert (seg_end >= t.now);
    let elapsed = Cycles.( - ) seg_end t.now in
    t.now <- seg_end;
    Guest.consume_task guest ~now:t.now ~elapsed job;
    if job.Task.remaining = 0 && List.memq job.Task.task t.activation_specs
    then t.live_aperiodic <- t.live_aperiodic - 1;
    drain t
  end
  else begin
    let seg_end = Cycles.min release_bound ne in
    assert (seg_end >= t.now);
    let elapsed = Cycles.( - ) seg_end t.now in
    t.now <- seg_end;
    if Guest.busy_loop guest then Guest.consume_filler guest ~elapsed
    else Guest.consume_idle guest ~elapsed;
    drain t
  end

let quiescent t =
  t.scheduled_arrivals = 0 && t.live_irqs = 0 && t.live_aperiodic = 0
  && hyp_is_empty t && t.ip_target < 0
  && not t.interposition_pending

let default_horizon = Cycles.of_ms 3_600_000 (* one simulated hour *)

let run ?(horizon = default_horizon) t =
  if not t.finished then begin
    (* Hoist the profiler lookup out of the step loop: every phase site
       below reads [t.prof] (one load, predictable branch when off). *)
    t.prof <- Prof.installed ();
    (match t.trace with
    | Some trace -> Flight_recorder.note_run trace
    | None -> ());
    (try
       Prof.span t.prof ph_run (fun () ->
           while (not (quiescent t)) && t.now < horizon do
             if t.hq_len > 0 then
               (* Nothing preempts hypervisor-context work, so while the
                  ring is non-empty the next runner is already known:
                  drain it without the quiescence and context checks. *)
               while t.hq_len > 0 && t.now < horizon do
                 hyp_item_step t
               done
             else if t.ip_target >= 0 then interp_step t
             else partition_step t
           done)
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       ignore
         (Flight_recorder.dump ~reason:"uncaught_exception"
            ~detail:(Printexc.to_string e) ()
           : string option);
       Printexc.raise_with_backtrace e bt);
    close_slot_accounting t;
    Option.iter (fun m -> Sim_metrics.finished m t.now) t.metrics;
    t.finished <- true;
    Option.iter (fun rule -> rule ()) t.audit
  end

let records t =
  let acc = ref [] in
  for irq = Array.length t.records - 1 downto 0 do
    let r = t.records.(irq) in
    if r != no_record then acc := r :: !acc
  done;
  !acc

let stats t = Sim_stats.assemble t

let guest t i = t.guests.(i)
let ipc t = t.ipc
let port t name = Ipc.find t.ipc name

let admission t ~source =
  Array.fold_left
    (fun acc src ->
      if src.cfg.Config.name = source then Some src.admission else acc)
    None t.sources

let monitor t ~source =
  match admission t ~source with
  | Some a -> Admission.monitor a
  | None -> None

let now t = t.now
