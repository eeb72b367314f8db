module Cycles = Rthv_engine.Cycles

type event =
  | Slot_switch of { from_partition : int; to_partition : int }
  | Boundary_deferred of { owner : int; until : Cycles.t }
  | Irq_raised of { irq : int; line : int }
  | Top_handler_run of { irq : int; line : int }
  | Monitor_decision of {
      irq : int;
      line : int;
      arrival : Cycles.t;
      verdict : [ `Admitted | `Denied | `Fallback_direct ];
    }
  | Interposition_start of { irq : int; target : int }
  | Interposition_end of {
      target : int;
      reason : [ `Budget_exhausted | `Queue_empty ];
    }
  | Interposition_crossed_boundary of { target : int }
  | Bottom_handler_start of { irq : int; partition : int }
  | Bottom_handler_done of { irq : int; partition : int }
  | Irq_coalesced of { line : int }

type entry = { time : Cycles.t; event : event }

(* Parallel arrays instead of an [entry option array]: [record] writes a
   plain int and an (already-allocated, caller-owned) event pointer, so the
   ring itself allocates nothing once it has reached [capacity] — this is
   what lets the flight recorder ride along on every run (see
   Flight_recorder) without perturbing the allocation benchmarks.  The
   arrays start at [first_block] entries and double up to [capacity], so a
   short run pays for the events it records rather than for a retention
   bound sized for the longest run.  Unwritten [events] slots hold a shared
   dummy and are never read ([total] bounds every traversal). *)
type t = {
  mutable times : int array;
  mutable events : event array;
  capacity : int;  (* most entries retained; the arrays never exceed it *)
  mutable next : int;  (* next write position *)
  mutable total : int;  (* events ever recorded *)
  mutable spill : (time:Cycles.t -> event -> unit) option;
}

let dummy_event = Irq_coalesced { line = -1 }

(* 256 words is the largest block the minor heap takes, so a ring that
   never outgrows it costs one minor allocation per array. *)
let first_block = 256

let create ?(capacity = 65_536) () =
  if capacity <= 0 then invalid_arg "Hyp_trace.create: capacity must be positive";
  let n = Stdlib.min capacity first_block in
  {
    times = Array.make n 0;
    events = Array.make n dummy_event;
    capacity;
    next = 0;
    total = 0;
    spill = None;
  }

let capacity t = t.capacity
(* Hooks compose into one closure, so a record pays one call whatever the
   number of hooks and allocates nothing. *)
let set_spill t f =
  t.spill <-
    Some
      (match t.spill with
      | None -> f
      | Some g ->
          fun ~time event ->
            g ~time event;
            f ~time event)

(* The write index reached the end of the arrays.  Below [capacity] the
   ring has never wrapped, so its entries fill the arrays in order: double
   them and keep writing after the old end.  At [capacity], wrap. *)
let grow_or_wrap t =
  let n = Array.length t.times in
  if n = t.capacity then 0
  else begin
    let m = Stdlib.min t.capacity (2 * n) in
    let times = Array.make m 0 and events = Array.make m dummy_event in
    Array.blit t.times 0 times 0 n;
    Array.blit t.events 0 events 0 n;
    t.times <- times;
    t.events <- events;
    n
  end

let record t ~time event =
  let i = t.next in
  t.times.(i) <- time;
  t.events.(i) <- event;
  let i = i + 1 in
  t.next <- (if i = Array.length t.times then grow_or_wrap t else i);
  t.total <- t.total + 1;
  match t.spill with None -> () | Some f -> f ~time event

let length t = Stdlib.min t.total t.capacity
let recorded t = t.total
let dropped t = Stdlib.max 0 (t.total - t.capacity)

let iter t f =
  (* Until the first wrap the entries sit in order from index 0, whatever
     the arrays' current size; after it the arrays are [capacity] long and
     the oldest entry is the next one to be overwritten. *)
  let start = if t.total <= t.capacity then 0 else t.next in
  for i = 0 to length t - 1 do
    let j = (start + i) mod t.capacity in
    f { time = t.times.(j); event = t.events.(j) }
  done

let to_list t =
  let acc = ref [] in
  iter t (fun entry -> acc := entry :: !acc);
  List.rev !acc

let pp_event ppf = function
  | Slot_switch { from_partition; to_partition } ->
      Format.fprintf ppf "slot switch p%d -> p%d" from_partition to_partition
  | Boundary_deferred { owner; until } ->
      Format.fprintf ppf "boundary deferred for p%d until %a" owner Cycles.pp
        until
  | Irq_raised { irq; line } ->
      Format.fprintf ppf "irq#%d raised (line %d)" irq line
  | Top_handler_run { irq; line } ->
      Format.fprintf ppf "top handler irq#%d (line %d)" irq line
  | Monitor_decision { irq; line; arrival; verdict } ->
      Format.fprintf ppf "monitor %s irq#%d (line %d, arrived %a)"
        (match verdict with
        | `Admitted -> "admitted"
        | `Denied -> "denied"
        | `Fallback_direct -> "fell back to direct for")
        irq line Cycles.pp arrival
  | Interposition_start { irq; target } ->
      Format.fprintf ppf "interposition into p%d for irq#%d" target irq
  | Interposition_end { target; reason } ->
      Format.fprintf ppf "interposition in p%d ended (%s)" target
        (match reason with
        | `Budget_exhausted -> "budget exhausted"
        | `Queue_empty -> "queue empty")
  | Interposition_crossed_boundary { target } ->
      Format.fprintf ppf "interposition in p%d crossed a slot boundary" target
  | Bottom_handler_start { irq; partition } ->
      Format.fprintf ppf "bottom handler start irq#%d (p%d)" irq partition
  | Bottom_handler_done { irq; partition } ->
      Format.fprintf ppf "bottom handler done irq#%d (p%d)" irq partition
  | Irq_coalesced { line } ->
      Format.fprintf ppf "irq coalesced on already-pending line %d" line

let pp_entry ppf { time; event } =
  Format.fprintf ppf "[%a] %a" Cycles.pp time pp_event event

let pp ppf t =
  (if dropped t > 0 then
     Format.fprintf ppf "(%d older entries dropped)@." (dropped t));
  iter t (fun entry -> Format.fprintf ppf "%a@." pp_entry entry)
