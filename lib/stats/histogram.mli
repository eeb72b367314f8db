(** Fixed-bin histograms over microsecond-valued measurements, in the style
    of Figure 6 of the paper (latency histograms with 8000 us range). *)

type t

val create : bin_width_us:float -> max_us:float -> t
(** Bins [k*w, (k+1)*w) covering [0, max_us); values at or beyond [max_us]
    land in an overflow bin.  @raise Invalid_argument on non-positive
    parameters. *)

val add : t -> float -> unit
(** Add one measurement (in microseconds; negatives raise). *)

val add_all : t -> float list -> unit

val count : t -> int
(** Total measurements. *)

val bins : t -> (float * float * int) list
(** [(lo_us, hi_us, count)] per bin, ascending, including trailing empty bins
    up to the last non-empty one; the overflow bin appears with
    [hi_us = infinity] when non-empty. *)

val max_bin : t -> (float * float * int) option
(** The fullest bin. *)

val quantile : t -> float -> float
(** [quantile t p] approximates the p-quantile (0 <= p <= 1) from bin
    midpoints.  @raise Invalid_argument on empty histogram or p outside
    [0, 1]. *)

val render :
  ?width:int -> ?log_scale:bool -> Format.formatter -> t -> unit
(** ASCII rendering: one row per bin with a bar scaled to the fullest bin.
    [log_scale] compresses tall bins — the paper's "broken y-axis with dual
    scale for better readability" equivalent. *)
