(* Top-handler routing: delivery of a raised line, the paid admission check
   and the direct / interposed / delayed classification.  All policy
   questions are delegated to the source's {!Admission} policy — this layer
   never looks inside it.

   Hypervisor work items carry a {!Sim_state.hyp_kind} instead of [on_done]
   closures; {!hyp_done} is the single dispatcher that runs each kind's
   continuation when its cost has been fully attributed.  This keeps the
   per-IRQ chain (top handler -> monitor -> sched manip -> ctx switches)
   allocation-free. *)

module Cycles = Rthv_engine.Cycles
module Irq_queue = Rthv_rtos.Irq_queue
module Guest = Rthv_rtos.Guest
module Intc = Rthv_hw.Intc
open Sim_state

(* Trace one monitor verdict; top-level so the hot path allocates no
   closure. *)
let record_decision t src irq ~arrival verdict =
  trace_row t Hyp_trace.Kind.Monitor_decision ~a:irq ~b:src.cfg.Config.line
    ~c:arrival ~d:(Hyp_trace.verdict_code verdict)

(* Decision point of the modified top handler (Figure 4b), reached after the
   admission predicate ran: admit the interposition or fall back to delayed
   handling. *)
let monitor_done t irq =
  Prof.enter t.prof ph_admission;
  let i = pending_slot t irq in
  let src = t.sources.(t.pf_source.(i)) in
  let arrival = t.pf_arrival.(i) in
  let conforms = Admission.decide src.admission arrival in
  let subscriber = src.cfg.Config.subscriber in
  if t.slot.Tdma.owner = subscriber then begin
    (* The subscriber's slot opened between the arrival and the monitoring
       decision: the queued event is processed right away in its own slot —
       direct handling, no interposition machinery needed. *)
    record_decision t src irq ~arrival `Fallback_direct;
    t.pf_class.(i) <- Irq_record.Direct;
    t.n_direct <- t.n_direct + 1
  end
  else if conforms && not t.interposition_pending then begin
    Admission.commit src.admission arrival;
    t.admissions <- t.admissions + 1;
    t.pf_class.(i) <- Irq_record.Interposed;
    t.n_interposed <- t.n_interposed + 1;
    t.interposition_pending <- true;
    record_decision t src irq ~arrival `Admitted;
    enqueue_hyp t K_sched_manip ~cost:t.c_sched irq
  end
  else begin
    t.denials <- t.denials + 1;
    t.pf_class.(i) <- Irq_record.Delayed;
    t.n_delayed <- t.n_delayed + 1;
    record_decision t src irq ~arrival `Denied
  end;
  Prof.leave t.prof

let top_handler_done t irq =
  let i = pending_slot t irq in
  let src = t.sources.(t.pf_source.(i)) in
  let arrival = t.pf_arrival.(i) in
  t.pf_top_end.(i) <- t.now;
  trace_row t Hyp_trace.Kind.Top_handler_run ~a:irq ~b:src.cfg.Config.line
    ~c:0 ~d:0;
  Intc.ack t.intc src.cfg.Config.line;
  (* The paper's experiment setup: the trigger timer is reprogrammed with the
     next pre-generated interarrival from within the top handler. *)
  schedule_next_arrival t src;
  Admission.observe src.admission arrival;
  let subscriber = src.cfg.Config.subscriber in
  let item =
    take_item t ~irq ~line:src.cfg.Config.line ~arrival
      ~work:src.cfg.Config.c_bh
  in
  Irq_queue.push (Guest.queue t.guests.(subscriber)) item;
  if t.slot.Tdma.owner = subscriber then begin
    t.pf_class.(i) <- Irq_record.Direct;
    t.n_direct <- t.n_direct + 1
  end
  else if not (Admission.active src.admission) then begin
    (* Original Figure-4a top handler: no admission machinery, every
       foreign-slot IRQ is delayed to the subscriber's slot. *)
    t.pf_class.(i) <- Irq_record.Delayed;
    t.n_delayed <- t.n_delayed + 1
  end
  else enqueue_hyp t K_monitor ~cost:t.c_mon irq

(* Continuation of a finished hypervisor work item — what used to be its
   [on_done] closure.  [irq] is -1 for the kinds that carry no IRQ
   (K_ctx_back, K_slot_switch). *)
let hyp_done t kind irq =
  match kind with
  | K_top_handler -> top_handler_done t irq
  | K_monitor -> monitor_done t irq
  | K_sched_manip -> enqueue_hyp t K_ctx_to ~cost:t.c_ctx irq
  | K_ctx_to ->
      let src = t.sources.(t.pf_source.(pending_slot t irq)) in
      let subscriber = src.cfg.Config.subscriber in
      t.interposition_switches <- t.interposition_switches + 1;
      t.interpositions_started <- t.interpositions_started + 1;
      trace_row t Hyp_trace.Kind.Interposition_start ~a:irq ~b:subscriber
        ~c:0 ~d:0;
      t.ip_target <- subscriber;
      t.ip_budget <- src.cfg.Config.c_bh
  | K_ctx_back ->
      t.interposition_switches <- t.interposition_switches + 1;
      t.interposition_pending <- false
  | K_slot_switch -> t.slot_switches <- t.slot_switches + 1

(* First-cycle hook of a hypervisor work item — what used to be its
   [on_start] closure.  Only the top handler observes its start time. *)
let hyp_start t kind irq time =
  match kind with
  | K_top_handler -> t.pf_top_start.(pending_slot t irq) <- time
  | _ -> ()

(* Interrupt-controller delivery: the hardware IRQ preempts partition code
   and enters the hypervisor's top handler. *)
let deliver t line =
  match t.source_by_line.(line) with
  | None -> ()
  | Some src ->
      let irq = t.next_irq_id in
      t.next_irq_id <- t.next_irq_id + 1;
      t.live_irqs <- t.live_irqs + 1;
      pending_add t irq ~source:src.s_idx ~arrival:t.now;
      trace_row t Hyp_trace.Kind.Irq_raised ~a:irq ~b:src.cfg.Config.line
        ~c:0 ~d:0;
      enqueue_hyp t K_top_handler ~cost:src.cfg.Config.c_th irq

let handle_arrival t s_idx =
  t.scheduled_arrivals <- t.scheduled_arrivals - 1;
  let src = t.sources.(s_idx) in
  let line = src.cfg.Config.line in
  if Intc.is_pending t.intc line then
    (* The non-counting pending flag is already set: this raise coalesces
       into the earlier one and is lost.  Intc counts it; the trace makes
       it visible on the timeline. *)
    trace_row t Hyp_trace.Kind.Irq_coalesced ~a:line ~b:0 ~c:0 ~d:0;
  Intc.raise_line t.intc line
