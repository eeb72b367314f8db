(** Static TDMA partition schedule.

    The hypervisor assigns each partition p_i a time slot of fixed length T_i
    and cycles through the slots in a static order; the cycle length T_TDMA
    is the sum of all slot lengths.  Unused capacity of a slot is left unused
    (Section 3 of the paper) — that property is what makes the schedule a
    temporal-isolation mechanism. *)

type t

val make : Rthv_engine.Cycles.t array -> t
(** [make slots] builds the schedule from per-partition slot lengths, in
    cycle order.  @raise Invalid_argument if empty or any slot is
    non-positive. *)

val of_us : int array -> t
(** Slot lengths in microseconds. *)

val partitions : t -> int

val cycle_length : t -> Rthv_engine.Cycles.t
(** T_TDMA. *)

val slot_length : t -> int -> Rthv_engine.Cycles.t
(** T_i of partition [i]. *)

val owner_at : t -> Rthv_engine.Cycles.t -> int
(** Partition whose slot contains the given instant.  Slots are half-open:
    the owner at a boundary is the {e starting} partition. *)

val slot_bounds_at : t -> Rthv_engine.Cycles.t -> int * Rthv_engine.Cycles.t * Rthv_engine.Cycles.t
(** [(owner, slot_start, slot_end)] of the slot containing the instant. *)

val next_boundary : t -> Rthv_engine.Cycles.t -> Rthv_engine.Cycles.t
(** First slot boundary strictly after the given instant. *)

type slot = { mutable owner : int; mutable slot_end : Rthv_engine.Cycles.t }
(** The result cell of {!locate}, owned and reused by the caller. *)

val slot : unit -> slot
(** A fresh result cell (owner 0, end 0). *)

val locate : t -> Rthv_engine.Cycles.t -> slot -> unit
(** [locate t time s] sets [s.owner] and [s.slot_end] to the owner and end
    of the slot containing [time]: {!slot_bounds_at}'s owner and end in one
    lookup, with no tuple and no closure, so it allocates nothing.  The end
    equals {!next_boundary}[ t time]. *)

val next_slot_start : t -> partition:int -> after:Rthv_engine.Cycles.t -> Rthv_engine.Cycles.t
(** Earliest start of a slot of [partition] at or after [after].  If [after]
    falls inside that partition's slot, this is the {e next} slot start, not
    the current one. *)

val interference : t -> partition:int -> Rthv_analysis.Tdma_interference.t
(** The analysis-side view of this schedule for the given partition
    (equation (8)). *)

val pp : Format.formatter -> t -> unit
