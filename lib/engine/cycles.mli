(** Simulated time measured in CPU clock cycles.

    All timing in the simulator is integer arithmetic on cycles of a fixed
    frequency clock (200 MHz for the paper's ARM926ej-s platform, i.e.
    1 us = 200 cycles).  Using integers avoids any floating-point drift in
    event ordering and makes runs bit-reproducible. *)

type t = int
(** A point in time, or a duration, in cycles.  Always non-negative in this
    code base; arithmetic is ordinary [int] arithmetic. *)

val zero : t

val cycles_per_us : int
(** Cycles per microsecond of the simulated 200 MHz clock. *)

val of_us : int -> t
(** [of_us n] is [n] microseconds as cycles. *)

val of_ms : int -> t
(** [of_ms n] is [n] milliseconds as cycles. *)

val of_instr : int -> t
(** [of_instr n] is the duration of [n] instructions.  The ARM926ej-s is a
    scalar in-order core; the paper's overheads are given in instructions and
    we model one instruction per cycle. *)

val to_us : t -> float
(** [to_us t] is [t] in microseconds (exact up to float precision). *)

val to_us_int : t -> int
(** [to_us_int t] is [t] in whole microseconds, rounded down. *)

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> int -> t

val min : t -> t -> t
val max : t -> t -> t

val compare : t -> t -> int

val add_sat : t -> t -> t
val mul_sat : t -> int -> t
(** Saturating [( + )] and [( * )] for non-negative operands: a sum or
    product past [max_int] is [max_int].  The analyses read a saturated
    value as "unbounded": an interference budget of [max_int] cycles fits
    in no slot. *)

val pp : Format.formatter -> t -> unit
(** Prints as microseconds with the raw cycle count, e.g. ["150.5us"]. *)
