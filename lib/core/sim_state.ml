(* Runtime state of the hypervisor simulation plus the accounting helpers
   shared by the routing ({!Sim_route}), boundary ({!Sim_boundary}) and
   stepping ({!Hyp_sim}) layers.  This module owns the mutable world; the
   layers above it own the decisions.

   The per-IRQ containers are allocation-free by construction: external
   events live in a packed {!Rthv_engine.Event_arena} (int payloads, no
   boxed entries), hypervisor work items live in a pooled ring of parallel
   arrays tagged by {!hyp_kind} (no records, no closures), in-flight IRQ
   state lives in parallel int columns found by masking the IRQ id (no
   hashing, no per-IRQ record), and completed bottom-half queue items are
   recycled. *)

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

(* Hypervisor-context work items: highest priority, FIFO, non-preemptible.
   Each kind identifies the continuation that used to be an [on_done]
   closure; the IRQ kinds carry their in-flight IRQ's id, the others need
   no context. *)
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

(* Filler for rows of [records] whose IRQ has not completed; never
   returned. *)
let no_record =
  {
    Irq_record.irq = -1;
    source = "";
    line = 0;
    arrival = 0;
    top_start = 0;
    top_end = 0;
    classification = Irq_record.Delayed;
    completion = 0;
  }

type t = {
  platform : Platform.t;
  config : Config.t;
  boundary : Boundary_policy.t;
  trace : Hyp_trace.t option;
  metrics : Sim_metrics.t option;
      (* Set when a registry was installed at creation; its fold reads
         [trace]. *)
  audit : (unit -> unit) option;
      (* The installed audit hook's ruling, when there was one at creation;
         its fold reads [trace] and [Hyp_sim.run] calls it at the end. *)
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
     resolved through the in-flight table on dispatch — an all-int ring
     incurs no write barriers and nothing for the GC to scan.  Every item
     referencing an IRQ runs before that IRQ finalizes (its bottom handler
     cannot execute while hypervisor work is queued), so the id is always
     resolvable when the item is dispatched. *)
  mutable hq_kind : hyp_kind array;
  mutable hq_remaining : Cycles.t array;
  mutable hq_started : bool array;
  mutable hq_irq : int array;
  mutable hq_head : int;
  mutable hq_len : int;
  (* In-flight IRQ table: one row per live IRQ at [irq land (capacity -
     1)] across parallel columns of one power-of-two capacity; see
     [pending_add].  [pf_irq] holds the row's IRQ id, -1 when free. *)
  mutable pf_irq : int array;
  mutable pf_source : int array;  (* index into [sources] *)
  mutable pf_arrival : Cycles.t array;
  mutable pf_top_start : Cycles.t array;
  mutable pf_top_end : Cycles.t array;
  mutable pf_bh_start : Cycles.t array;  (* first bottom-half cycle, or -1 *)
  mutable pf_class : Irq_record.classification array;
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
  (* Completed records by IRQ id ([no_record] where the IRQ has not
     completed): ids are dense from 0, so reading them back in arrival
     order is one pass, no sort.  Grows by doubling from 64 rows. *)
  mutable records : Irq_record.t array;
  (* Completed queue items, reused by the next top handlers
     ([item_pool_len] of them at the front). *)
  mutable item_pool : Irq_queue.item array;
  mutable item_pool_len : int;
  mutable n_completed : int;
  mutable next_irq_id : int;
  slot : Tdma.slot;
      (* Owner and end of the running slot; a deferred switch extends the
         end. *)
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

let enqueue_hyp t kind ~cost irq =
  if cost < 0 then invalid_arg "Hyp_sim: negative hypervisor work";
  if t.hq_len = Array.length t.hq_kind then hyp_grow t;
  let i = (t.hq_head + t.hq_len) land (Array.length t.hq_kind - 1) in
  t.hq_kind.(i) <- kind;
  t.hq_remaining.(i) <- cost;
  t.hq_started.(i) <- false;
  t.hq_irq.(i) <- irq;
  t.hq_len <- t.hq_len + 1

let hyp_pop t =
  t.hq_head <- (t.hq_head + 1) land (Array.length t.hq_kind - 1);
  t.hq_len <- t.hq_len - 1

(* --- in-flight IRQ table ------------------------------------------------ *)

(* Only live IRQs hold a row, so the table is sized by the in-flight peak,
   not by the run length: the 1M-IRQ streaming bench keeps its first 64
   rows.  The table doubles only when [irq]'s row holds a live IRQ; ids
   that differ modulo the capacity still differ modulo twice the capacity,
   so re-placing the live rows cannot collide. *)
let pending_slot t irq = irq land (Array.length t.pf_irq - 1)

let pending_grow t =
  let ids = t.pf_irq in
  let cap' = 2 * Array.length ids in
  let move column fill =
    let column' = Array.make cap' fill in
    Array.iteri
      (fun i irq ->
        if irq >= 0 then column'.(irq land (cap' - 1)) <- column.(i))
      ids;
    column'
  in
  t.pf_source <- move t.pf_source 0;
  t.pf_arrival <- move t.pf_arrival 0;
  t.pf_top_start <- move t.pf_top_start 0;
  t.pf_top_end <- move t.pf_top_end 0;
  t.pf_bh_start <- move t.pf_bh_start 0;
  t.pf_class <- move t.pf_class Irq_record.Delayed;
  t.pf_irq <- move ids (-1)

(* Open the row of a newly delivered IRQ. *)
let rec pending_add t irq ~source ~arrival =
  let i = pending_slot t irq in
  if t.pf_irq.(i) >= 0 then begin
    pending_grow t;
    pending_add t irq ~source ~arrival
  end
  else begin
    t.pf_irq.(i) <- irq;
    t.pf_source.(i) <- source;
    t.pf_arrival.(i) <- arrival;
    t.pf_top_start.(i) <- arrival;
    t.pf_top_end.(i) <- arrival;
    t.pf_bh_start.(i) <- -1;
    t.pf_class.(i) <- Irq_record.Delayed
  end

let trace_event_at t time event =
  match t.trace with
  | Some trace -> Hyp_trace.record trace ~time event
  | None -> ()

let trace_event t event = trace_event_at t t.now event

(* Guard for hot call sites: constructing the event value itself allocates,
   so untraced runs skip even that. *)
let tracing t = match t.trace with Some _ -> true | None -> false

(* Profiled phases of the stepping loop (see DESIGN "Profiling"): the drain
   loop's event dispatch, the admission decision and boundary handling. *)
module Prof = Rthv_obs.Prof

let ph_run = Prof.phase "run"
let ph_dispatch = Prof.phase "dispatch"
let ph_admission = Prof.phase "admission"
let ph_boundary = Prof.phase "boundary"

let steal t elapsed =
  t.stolen_in_slot <- Cycles.( + ) t.stolen_in_slot elapsed

let close_slot_accounting t =
  let owner = t.slot.Tdma.owner in
  t.stolen_total.(owner) <- Cycles.( + ) t.stolen_total.(owner) t.stolen_in_slot;
  if t.stolen_in_slot > t.stolen_slot_max.(owner) then
    t.stolen_slot_max.(owner) <- t.stolen_in_slot;
  (match t.metrics with
  | Some m -> Sim_metrics.slot_closed m ~owner t.stolen_in_slot
  | None -> ());
  t.stolen_in_slot <- 0

(* Room for the record of [irq]: double until its id fits. *)
let grow_records t irq =
  let cap = ref (Stdlib.max 64 (2 * Array.length t.records)) in
  while !cap <= irq do
    cap := 2 * !cap
  done;
  let grown = Array.make !cap no_record in
  Array.blit t.records 0 grown 0 (Array.length t.records);
  t.records <- grown

(* A queue item for the next top handler: a recycled one when available. *)
let take_item t ~irq ~line ~arrival ~work =
  if t.item_pool_len = 0 then Irq_queue.make_item ~irq ~line ~arrival ~work
  else begin
    t.item_pool_len <- t.item_pool_len - 1;
    let item = t.item_pool.(t.item_pool_len) in
    Irq_queue.reset_item item ~irq ~line ~arrival ~work;
    item
  end

let recycle_item t item =
  if t.item_pool_len = Array.length t.item_pool then begin
    (* Any item fills the new rows: rows past [item_pool_len] are never
       read. *)
    let grown = Array.make (Stdlib.max 16 (2 * t.item_pool_len)) item in
    Array.blit t.item_pool 0 grown 0 t.item_pool_len;
    t.item_pool <- grown
  end;
  t.item_pool.(t.item_pool_len) <- item;
  t.item_pool_len <- t.item_pool_len + 1

let finalize_completion t (item : Irq_queue.item) =
  let irq = item.Irq_queue.irq in
  let i = pending_slot t irq in
  (* Completion must be unique: items are dropped from the queue the
     moment their work reaches zero. *)
  assert (t.pf_irq.(i) = irq);
  let src = t.sources.(t.pf_source.(i)) in
  if t.retain_records then begin
    if irq >= Array.length t.records then grow_records t irq;
    t.records.(irq) <-
      {
        Irq_record.irq;
        source = src.cfg.Config.name;
        line = src.cfg.Config.line;
        arrival = t.pf_arrival.(i);
        top_start = t.pf_top_start.(i);
        top_end = t.pf_top_end.(i);
        classification = t.pf_class.(i);
        completion = t.now;
      }
  end;
  (* Nothing outlives the item's completion: the record copies its
     columns, and the guests keep no completed items. *)
  recycle_item t item;
  t.n_completed <- t.n_completed + 1;
  t.live_irqs <- t.live_irqs - 1;
  if tracing t then
    trace_event t
      (Hyp_trace.Bottom_handler_done
         { irq; partition = src.cfg.Config.subscriber });
  t.pf_irq.(i) <- -1;
  (* uC/OS pattern: the bottom handler posts to an application task. *)
  match src.cfg.Config.activates with
  | Some spec ->
      t.live_aperiodic <- t.live_aperiodic + 1;
      Guest.release_aperiodic t.guests.(src.cfg.Config.subscriber) ~spec
        ~now:t.now
  | None -> ()

let end_interposition t ~reason =
  if t.ip_target >= 0 && tracing t then
    trace_event t
      (Hyp_trace.Interposition_end { target = t.ip_target; reason });
  t.ip_target <- -1;
  t.ip_budget <- 0;
  enqueue_hyp t K_ctx_back ~cost:t.c_ctx (-1)

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
