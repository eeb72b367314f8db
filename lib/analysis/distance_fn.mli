(** Minimum-distance functions delta^-(q) with finite support.

    Following Neukirchner et al. (RTSS 2012) and Richter's event model, an
    l-entry minimum-distance function stores, for [i] in [0 .. l-1], the
    minimum observed (or permitted) temporal distance between an event and
    the event [i+1] positions before it — i.e. [entries.(i)] is a lower bound
    on delta^-(i+2), the minimum span of any [i+2] consecutive events.

    Beyond the stored horizon the function is extended by superadditive
    composition, which preserves the lower-bound property: the true distance
    function D satisfies D(n+m) >= D(n+1) + D(m+1) for a split of the gap
    sequence, so composing stored entries never over-estimates distances.

    Entries are normalised to be non-decreasing on construction (a span of
    more events can never be shorter than a span of fewer). *)

type t

val length : t -> int
(** Number of stored entries (the paper's [l]). *)

val entries : t -> Rthv_engine.Cycles.t array
(** A copy of the stored entries; [entries.(i)] bounds delta^-(i+2). *)

val of_entries : Rthv_engine.Cycles.t array -> t
(** Build from raw entries.  Negative entries are clamped to 0 and the array
    is made non-decreasing (each entry raised to the running maximum).
    @raise Invalid_argument on an empty array. *)

val d_min : Rthv_engine.Cycles.t -> t
(** The l=1 function used in Section 5 of the paper: consecutive events at
    least [d] apart. *)

val unbounded : l:int -> t
(** Entries all zero: permits any pattern (the "monitoring disabled"
    degenerate case). *)

val finite : t -> bool
(** Every entry is below the "no bound learned" sentinel that {!of_trace}
    leaves in never-observed positions.  A function with sentinel entries is
    not a usable monitoring condition: the superadditive extension of
    {!delta} sums entries, so sentinel-sized values overflow the eq.-(14)
    arithmetic.  {!Rthv_core.Config.validate} rejects such conditions. *)

val delta : t -> int -> Rthv_engine.Cycles.t
(** [delta t q] is the minimum span of [q] consecutive events.  [delta t 0]
    and [delta t 1] are 0.  Beyond the stored horizon the superadditive
    extension applies.  @raise Invalid_argument on negative [q]. *)

val eta_plus : t -> Rthv_engine.Cycles.t -> int
(** Dual upper arrival function: the maximum number of events in any
    half-open window of the given length, [max {q : delta t q < dt}].
    Returns 0 for non-positive windows, and [max_int] when the count is
    past [max_int] ({!delta} saturates at [max_int] as well).
    @raise Failure if the function is degenerate (all entries zero) and the
    window is positive, as the count would be unbounded. *)

val conforms : t -> Rthv_engine.Cycles.t list -> bool
(** [conforms t timestamps] checks that the (sorted ascending) timestamp list
    respects every stored distance: for all i, j with j - i <= length t,
    [ts.(j) - ts.(i) >= delta t (j - i + 1)]. *)

val of_trace : l:int -> Rthv_engine.Cycles.t list -> t
(** Learn a distance function from a sorted trace, exactly as Algorithm 1 of
    the paper: each entry is the minimum distance observed between an event
    and its (i+1)-th predecessor.  Events beyond the window [l] are ignored.
    Entries never observed stay at [max_int / 2] (effectively "no bound
    learned").  @raise Invalid_argument if [l <= 0]. *)

val adjust_to_bound : learned:t -> bound:t -> t
(** Algorithm 2 of the paper: raise every learned entry that is below the
    corresponding bound entry to the bound, so the resulting monitoring
    condition never admits more load than [bound] allows.  Both functions
    must have the same length. *)

val scale_load : t -> factor:float -> t
(** [scale_load t ~factor] produces the function that admits [factor] times
    the event load of [t]: every distance is divided by [factor] (so
    [factor < 1.] means larger distances, i.e. less admitted load — the
    paper's "25 % of the requested load" bound is [scale_load learned
    ~factor:0.25]).  @raise Invalid_argument if [factor <= 0.]. *)

val long_term_rate : t -> float
(** Admitted long-term event rate in events per cycle, [l / delta(l+1)]
    (infinite if the last entry is zero, returned as [infinity]). *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
