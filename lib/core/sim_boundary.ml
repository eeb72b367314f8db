(* Slot-boundary handling: deferral of the switch for a mid-flight bottom
   handler (per the configured {!Boundary_policy}) and the switch itself,
   including the bounded spill of an interposition crossing the boundary. *)

module Cycles = Rthv_engine.Cycles
module Event_arena = Rthv_engine.Event_arena
module Irq_queue = Rthv_rtos.Irq_queue
module Guest = Rthv_rtos.Guest
open Sim_state

(* Defer the partition switch while the slot owner is in the middle of a
   bottom handler: let it finish, bounded by the handler's remaining budget.
   Returns the new deferred boundary time, or -1 to switch now. *)
let boundary_deferral t =
  if not (Boundary_policy.defers t.boundary) then -1
  else if t.ip_target >= 0 then -1
  else
    let queue = Guest.queue t.guests.(t.slot.Tdma.owner) in
    if Irq_queue.is_empty queue then -1
    else
      let item = Irq_queue.head queue in
      if
        item.Irq_queue.remaining > 0
        && item.Irq_queue.remaining < item.Irq_queue.total
      then Cycles.( + ) t.now item.Irq_queue.remaining
      else -1

let handle_boundary t =
  Prof.enter t.prof ph_boundary;
  let deferred = boundary_deferral t in
  if deferred >= 0 then begin
    t.bh_boundary_deferrals <- t.bh_boundary_deferrals + 1;
    trace_row t Hyp_trace.Kind.Boundary_deferred ~a:t.slot.Tdma.owner
      ~b:deferred ~c:0 ~d:0;
    (* Keep the old owner in place; extend its slot to the deferred check
       so execution can proceed, and re-examine then. *)
    t.slot.Tdma.slot_end <- deferred;
    Event_arena.push t.events ~time:deferred ev_boundary
  end
  else begin
    (* A running interposition is NOT cut at the boundary: its budget
       bounds the overrun by C_BH, so worst-case latency of conforming
       interrupts stays independent of the TDMA cycle (Section 5's
       claim).  The spill is charged to the incoming slot's owner as
       stolen time. *)
    if t.ip_target >= 0 then begin
      t.boundary_crossings <- t.boundary_crossings + 1;
      trace_row t Hyp_trace.Kind.Interposition_crossed_boundary
        ~a:t.ip_target ~b:0 ~c:0 ~d:0
    end;
    close_slot_accounting t;
    let previous_owner = t.slot.Tdma.owner in
    (* One lookup yields the new owner and its slot end, which is also the
       next boundary. *)
    Tdma.locate t.tdma t.now t.slot;
    trace_row t Hyp_trace.Kind.Slot_switch ~a:previous_owner
      ~b:t.slot.Tdma.owner ~c:0 ~d:0;
    enqueue_hyp t K_slot_switch ~cost:t.c_ctx (-1);
    Event_arena.push t.events ~time:t.slot.Tdma.slot_end ev_boundary
  end;
  Prof.leave t.prof
