(* Runtime state of the hypervisor simulation plus the accounting helpers
   shared by the routing ({!Sim_route}), boundary ({!Sim_boundary}) and
   stepping ({!Hyp_sim}) layers.  This module owns the mutable world; the
   layers above it own the decisions.

   The hot-path containers are allocation-free by construction: external
   events live in a packed {!Rthv_engine.Event_arena} (int payloads, no
   boxed entries), hypervisor work items live in a pooled ring of parallel
   arrays tagged by {!hyp_kind} (no records, no closures), and in-flight
   IRQ state is found by masking the IRQ id into a power-of-two table
   instead of hashing. *)

module Cycles = Rthv_engine.Cycles
module Event_arena = Rthv_engine.Event_arena
module Guest = Rthv_rtos.Guest
module Ipc = Rthv_rtos.Ipc
module Irq_queue = Rthv_rtos.Irq_queue
module Platform = Rthv_hw.Platform
module Intc = Rthv_hw.Intc

(* External-event payload encoding for the packed arena: a slot boundary is
   [-1], an arrival is the (non-negative) source index. *)
let ev_boundary = -1

type runtime_source = {
  cfg : Config.source;
  s_idx : int;
  admission : Admission.t;
  mutable next_arrival : int;
}

type pending_irq = {
  p_irq : int;
  p_source : runtime_source;
  p_arrival : Cycles.t;
  mutable p_top_start : Cycles.t;
  mutable p_top_end : Cycles.t;
  mutable p_decision : Cycles.t;  (* classification fixed; -1 until then *)
  mutable p_bh_start : Cycles.t;  (* first bottom-half cycle; -1 until then *)
  mutable p_class : Irq_record.classification;
}

(* Hypervisor-context work items: highest priority, FIFO, non-preemptible.
   Each kind identifies the continuation that used to be an [on_done]
   closure; the IRQ kinds carry their in-flight IRQ (whose [p_source] is
   the source), the others need no context. *)
type hyp_kind =
  | K_top_handler  (* modified top handler; completion routes the IRQ *)
  | K_monitor  (* paid admission check (C_MON) *)
  | K_sched_manip  (* scheduler manipulation before an interposition *)
  | K_ctx_to  (* context switch into the interposed partition *)
  | K_ctx_back  (* context switch back to the slot owner *)
  | K_slot_switch  (* TDMA partition switch at a slot boundary *)

(* Which items count towards the eq.-(14) interference on the slot owner. *)
let k_steals = function
  | K_sched_manip | K_ctx_to | K_ctx_back -> true
  | K_top_handler | K_monitor | K_slot_switch -> false

(* Shared placeholder for ring slots whose kind carries no IRQ
   (K_ctx_back, K_slot_switch) and for free [pending_by_irq] slots.
   Never dispatched on, never mutated. *)
let dummy_source_cfg : Config.source =
  {
    Config.name = "";
    line = 0;
    subscriber = 0;
    c_th = 1;
    c_bh = 1;
    interarrivals = [||];
    arrival_mode = Config.Reprogram;
    shaping = Config.No_shaping;
    activates = None;
  }

let dummy_source =
  {
    cfg = dummy_source_cfg;
    s_idx = -1;
    admission = Admission.of_shaping ~cycle:1 Config.No_shaping;
    next_arrival = 0;
  }

let dummy_pending =
  {
    p_irq = -1;
    p_source = dummy_source;
    p_arrival = 0;
    p_top_start = 0;
    p_top_end = 0;
    p_decision = 0;
    p_bh_start = 0;
    p_class = Irq_record.Delayed;
  }

type t = {
  platform : Platform.t;
  config : Config.t;
  boundary : Boundary_policy.t;
  trace : Hyp_trace.t option;
  mutable prof : Rthv_obs.Prof.t;
      (* The phase profiler for the current run, hoisted out of the step
         loop: [Hyp_sim.run] refreshes it from [Prof.installed] once per
         run, so every instrumentation site below is one field load plus a
         predictable branch when profiling is off. *)
  tdma : Tdma.t;
  ipc : Ipc.t;
  guests : Guest.t array;
  sources : runtime_source array;
  source_by_line : runtime_source option array;
  intc : Intc.t;
  events : Event_arena.t;
  (* Hypervisor work-item ring: parallel arrays, power-of-two capacity,
     FIFO between [hq_head] and [hq_head + hq_len) modulo capacity.  The
     IRQ context is stored as its id ([-1] for the kinds carrying none) and
     resolved through [pending_by_irq] on dispatch — an all-int ring incurs
     no write barriers and nothing for the GC to scan.  Every item
     referencing an IRQ runs before that IRQ finalizes (its bottom handler
     cannot execute while hypervisor work is queued), so the id is always
     resolvable when the item is dispatched. *)
  mutable hq_kind : hyp_kind array;
  mutable hq_remaining : Cycles.t array;
  mutable hq_started : bool array;
  mutable hq_irq : int array;
  mutable hq_head : int;
  mutable hq_len : int;
  (* In-flight IRQs at slot [irq land (capacity - 1)], power-of-two
     capacity ([dummy_pending] in free slots); see [pending_add]. *)
  mutable pending_by_irq : pending_irq array;
  c_mon : Cycles.t;
  c_sched : Cycles.t;
  c_ctx : Cycles.t;
  mutable now : Cycles.t;
  (* Live interposition, unboxed: [ip_target] is the partition running the
     interposed bottom handler, or [-1] when none is in flight.  At most one
     exists at a time, so two int fields replace an option record on the
     per-segment hot path. *)
  mutable ip_target : int;
  mutable ip_budget : Cycles.t;
  mutable interposition_pending : bool;
  retain_records : bool;
  mutable records : Irq_record.t list;  (* newest first *)
  mutable n_completed : int;
  mutable next_irq_id : int;
  mutable slot_owner : int;
  mutable slot_end : Cycles.t;
  mutable stolen_in_slot : Cycles.t;
  stolen_total : Cycles.t array;
  stolen_slot_max : Cycles.t array;
  activation_specs : Rthv_rtos.Task.spec list;
  mutable scheduled_arrivals : int;
  mutable live_irqs : int;
  mutable live_aperiodic : int;
  mutable slot_switches : int;
  mutable interposition_switches : int;
  mutable interpositions_started : int;
  mutable boundary_crossings : int;
  mutable bh_boundary_deferrals : int;
  mutable admissions : int;
  mutable denials : int;
  mutable n_direct : int;
  mutable n_interposed : int;
  mutable n_delayed : int;
  mutable finished : bool;
}

(* --- hypervisor work ring ---------------------------------------------- *)

let hyp_is_empty t = t.hq_len = 0

let hyp_grow t =
  let cap = Array.length t.hq_kind in
  let cap' = cap * 2 in
  let kind' = Array.make cap' K_slot_switch in
  let remaining' = Array.make cap' 0 in
  let started' = Array.make cap' false in
  let irq' = Array.make cap' (-1) in
  for i = 0 to t.hq_len - 1 do
    let j = (t.hq_head + i) land (cap - 1) in
    kind'.(i) <- t.hq_kind.(j);
    remaining'.(i) <- t.hq_remaining.(j);
    started'.(i) <- t.hq_started.(j);
    irq'.(i) <- t.hq_irq.(j)
  done;
  t.hq_kind <- kind';
  t.hq_remaining <- remaining';
  t.hq_started <- started';
  t.hq_irq <- irq';
  t.hq_head <- 0

let enqueue_hyp t kind ~cost (p : pending_irq) =
  if cost < 0 then invalid_arg "Hyp_sim: negative hypervisor work";
  if t.hq_len = Array.length t.hq_kind then hyp_grow t;
  let i = (t.hq_head + t.hq_len) land (Array.length t.hq_kind - 1) in
  t.hq_kind.(i) <- kind;
  t.hq_remaining.(i) <- cost;
  t.hq_started.(i) <- false;
  t.hq_irq.(i) <- p.p_irq;
  t.hq_len <- t.hq_len + 1

let hyp_pop t =
  t.hq_head <- (t.hq_head + 1) land (Array.length t.hq_kind - 1);
  t.hq_len <- t.hq_len - 1

(* --- in-flight IRQ table ------------------------------------------------ *)

(* Only live IRQs hold a slot, so the table is sized by the in-flight peak,
   not by the run length: the 1M-IRQ streaming bench keeps its first 64
   slots.  The table doubles only when [irq]'s slot holds a live IRQ; ids
   that differ modulo the capacity still differ modulo twice the capacity,
   so re-placing the live entries cannot collide. *)
let pending_slot t irq = irq land (Array.length t.pending_by_irq - 1)

let rec pending_add t irq p =
  let i = pending_slot t irq in
  if t.pending_by_irq.(i).p_irq < 0 then t.pending_by_irq.(i) <- p
  else begin
    let cap' = 2 * Array.length t.pending_by_irq in
    let grown = Array.make cap' dummy_pending in
    Array.iter
      (fun q -> if q.p_irq >= 0 then grown.(q.p_irq land (cap' - 1)) <- q)
      t.pending_by_irq;
    t.pending_by_irq <- grown;
    pending_add t irq p
  end

(* The in-flight record of [irq], or [dummy_pending] (p_irq = -1) if the
   IRQ already completed. *)
let pending_get t irq =
  let p = t.pending_by_irq.(pending_slot t irq) in
  if p.p_irq = irq then p else dummy_pending

let trace_event_at t time event =
  match t.trace with
  | Some trace -> Hyp_trace.record trace ~time event
  | None -> ()

let trace_event t event = trace_event_at t t.now event

(* Guard for hot call sites: constructing the event value itself allocates,
   so untraced runs skip even that. *)
let tracing t = match t.trace with Some _ -> true | None -> false

(* --- telemetry ----------------------------------------------------------
   Every site is guarded by [Sink.active] so the default no-op sink costs a
   single flag read — no labels are built, no calls dispatched.  Metric
   names map onto the paper's quantities: [rthv_irq_latency_us] is the
   simulated counterpart of the eq. (11)/(16) latency bounds,
   [rthv_stolen_slot_us] the per-slot interference eq. (14) budgets. *)
module Sink = Rthv_obs.Sink
module Labels = Rthv_obs.Labels
module Span = Rthv_obs.Span
module Prof = Rthv_obs.Prof

let obs_active = Sink.active

(* Profiled phases of the stepping loop (see DESIGN "Profiling"): the drain
   loop's event dispatch, the admission decision, boundary handling, and
   the sink-emission work on IRQ completion. *)
let ph_run = Prof.phase "run"
let ph_dispatch = Prof.phase "dispatch"
let ph_admission = Prof.phase "admission"
let ph_boundary = Prof.phase "boundary"
let ph_sink_emit = Prof.phase "sink_emit"

let obs_count name = Sink.incr name Labels.empty 1

let obs_irq_completed t p =
  let source = p.p_source.cfg.Config.name in
  let cls = Irq_record.classification_name p.p_class in
  Sink.incr "rthv_irq_completed_total"
    (Labels.v
       [
         ("source", source);
         ("class", cls);
         ("partition", string_of_int p.p_source.cfg.Config.subscriber);
       ])
    1;
  Sink.observe "rthv_irq_latency_us"
    (Labels.v [ ("source", source); ("class", cls) ])
    (Cycles.to_us (Cycles.( - ) t.now p.p_arrival))

(* One causal span per completed IRQ instance, timestamps in us.  The
   decision point and bottom-half start are clamped for robustness, but
   with the capture sites in [Hyp_sim] both are always set before
   completion. *)
let obs_span t p =
  let us = Cycles.to_us in
  let decision = if p.p_decision < 0 then p.p_top_end else p.p_decision in
  let bh_start = if p.p_bh_start < 0 then t.now else p.p_bh_start in
  Sink.span
    {
      Span.sp_irq = p.p_irq;
      sp_line = p.p_source.cfg.Config.line;
      sp_source = p.p_source.cfg.Config.name;
      sp_class = Irq_record.classification_name p.p_class;
      sp_arrival = us p.p_arrival;
      sp_top_start = us p.p_top_start;
      sp_top_end = us p.p_top_end;
      sp_decision = us decision;
      sp_bh_start = us bh_start;
      sp_completion = us t.now;
    }

let obs_monitor_decision src verdict =
  Sink.incr "rthv_monitor_decisions_total"
    (Labels.v
       [
         ("source", src.cfg.Config.name);
         ( "verdict",
           match verdict with
           | `Admitted -> "admitted"
           | `Denied -> "denied"
           | `Fallback_direct -> "fallback_direct" );
       ])
    1

let steal t elapsed =
  t.stolen_in_slot <- Cycles.( + ) t.stolen_in_slot elapsed

let close_slot_accounting t =
  let owner = t.slot_owner in
  t.stolen_total.(owner) <- Cycles.( + ) t.stolen_total.(owner) t.stolen_in_slot;
  if t.stolen_in_slot > t.stolen_slot_max.(owner) then
    t.stolen_slot_max.(owner) <- t.stolen_in_slot;
  if obs_active () then
    Sink.observe "rthv_stolen_slot_us"
      (Labels.of_int "partition" owner)
      (Cycles.to_us t.stolen_in_slot);
  t.stolen_in_slot <- 0

let finalize_completion t (item : Irq_queue.item) =
  let p = pending_get t item.Irq_queue.irq in
  (* Completion must be unique: items are dropped from the queue the
     moment their work reaches zero. *)
  assert (p.p_irq = item.Irq_queue.irq);
  if t.retain_records then begin
    let record =
      {
        Irq_record.irq = p.p_irq;
        source = p.p_source.cfg.Config.name;
        line = p.p_source.cfg.Config.line;
        arrival = p.p_arrival;
        top_start = p.p_top_start;
        top_end = p.p_top_end;
        classification = p.p_class;
        completion = t.now;
      }
    in
    t.records <- record :: t.records
  end;
  t.n_completed <- t.n_completed + 1;
  t.pending_by_irq.(pending_slot t p.p_irq) <- dummy_pending;
  t.live_irqs <- t.live_irqs - 1;
  if tracing t then
    trace_event t
      (Hyp_trace.Bottom_handler_done
         { irq = p.p_irq; partition = p.p_source.cfg.Config.subscriber });
  if obs_active () then begin
    Prof.enter t.prof ph_sink_emit;
    obs_irq_completed t p;
    obs_span t p;
    Prof.leave t.prof
  end;
  (* uC/OS pattern: the bottom handler posts to an application task. *)
  match p.p_source.cfg.Config.activates with
  | Some spec ->
      t.live_aperiodic <- t.live_aperiodic + 1;
      Guest.release_aperiodic
        t.guests.(p.p_source.cfg.Config.subscriber)
        ~spec ~now:t.now
  | None -> ()

let end_interposition t ~reason =
  if t.ip_target >= 0 && tracing t then
    trace_event t
      (Hyp_trace.Interposition_end { target = t.ip_target; reason });
  t.ip_target <- -1;
  t.ip_budget <- 0;
  enqueue_hyp t K_ctx_back ~cost:t.c_ctx dummy_pending

let schedule_next_arrival t src =
  let distances = src.cfg.Config.interarrivals in
  if src.cfg.Config.arrival_mode = Config.Reprogram
     && src.next_arrival < Array.length distances
  then begin
    let d = distances.(src.next_arrival) in
    src.next_arrival <- src.next_arrival + 1;
    Event_arena.push t.events ~time:(Cycles.( + ) t.now d) src.s_idx;
    t.scheduled_arrivals <- t.scheduled_arrivals + 1
  end
