(** Token-bucket interrupt throttle — the related-work baseline.

    Regehr & Duongsaa (LCTES 2005) prevent interrupt overload by throttling
    at the source: admissions are limited to a long-term rate with a bounded
    burst allowance.  Used here as an alternative admission policy for
    interposed bottom handlers, to compare against the paper's delta^-
    monitor:

    - the bucket refills one token every [refill] cycles, up to [capacity];
    - an activation is admitted iff a token is available, consuming it.

    Interference bound: any window dt admits at most
    [capacity + floor(dt/refill)] interpositions — an affine curve, burstier
    than the d_min monitor's at equal long-term rate (capacity > 1 trades
    latency for clustering). *)

type t

val create : capacity:int -> refill:Rthv_engine.Cycles.t -> t
(** The bucket starts full.
    @raise Invalid_argument unless [capacity >= 1] and [refill >= 1]. *)

val capacity : t -> int

val refill : t -> Rthv_engine.Cycles.t

val check : t -> Rthv_engine.Cycles.t -> bool
(** [check t ts]: is a token available at time [ts]?  Updates the fill level
    to [ts] (timestamps must be non-decreasing) but does not consume.
    @raise Invalid_argument if time goes backwards. *)

val admit : t -> Rthv_engine.Cycles.t -> unit
(** Consume a token.  @raise Invalid_argument if none is available. *)

val earliest : t -> Rthv_engine.Cycles.t -> Rthv_engine.Cycles.t
(** The earliest time [>= ts] at which a token is available.  Updates the
    fill level to [ts] like {!check}, uncounted.
    @raise Invalid_argument if time goes backwards. *)

val level : t -> int
(** Tokens currently available (at the last update time). *)

val checked_count : t -> int

val admitted_count : t -> int
