(** Metrics registry.

    Counters, gauges, fixed-bin histograms and streaming-quantile summaries
    keyed by name + {!Labels}.  Registration is idempotent — asking for the
    same (name, labels) series again returns the existing instance — and a
    kind clash raises.  Snapshots and the text / JSON / Prometheus
    exposition renderings read the live values without stopping the
    writers. *)

type t

val create : unit -> t

(** {2 Registration / update}

    Each accessor creates the series on first use.
    @raise Invalid_argument if the series exists with a different kind. *)

val counter : t -> ?labels:Labels.t -> string -> int ref
val incr : t -> ?labels:Labels.t -> string -> int -> unit

val gauge : t -> ?labels:Labels.t -> string -> float ref
val set_gauge : t -> ?labels:Labels.t -> string -> float -> unit

val histogram :
  t -> ?labels:Labels.t -> ?bounds:float array -> string -> Metric.histogram
(** [bounds] defaults to {!Metric.default_latency_bounds} and only applies
    on first registration. *)

val observe : t -> ?labels:Labels.t -> ?bounds:float array -> string -> float -> unit

val summary : t -> ?labels:Labels.t -> ?quantiles:float list -> string -> Quantile.t
val observe_summary : t -> ?labels:Labels.t -> string -> float -> unit

val find : t -> ?labels:Labels.t -> string -> Metric.value option

val set_help : t -> string -> string -> unit
(** [set_help t name doc] documents the metric family [name] (all series
    sharing the name): the Prometheus exposition emits it as the family's
    [# HELP] line, newline/backslash-escaped.  Idempotent; the last call
    wins; the empty string is ignored. *)

val help : t -> string -> string option

(** {2 The installed registry}

    Simulations created while a registry is installed fold their metrics
    into it, and the analyses write their convergence gauges into it.
    Installation is domain-local, so {!Rthv_par.Par} gives every sweep task
    its own registry. *)

val installed : unit -> t option
(** The registry installed on this domain, if any. *)

val with_installed : t -> (unit -> 'a) -> 'a
(** Install for the duration of the callback, restoring the previous
    registry (even on exceptions). *)

(** {2 Snapshot and export} *)

type row = { name : string; labels : Labels.t; value : Metric.value }

val snapshot : t -> row list
(** Sorted by name, then labels. *)

val cardinality : t -> int

val merge : into:t -> t -> unit
(** [merge ~into src] folds every series of [src] into [into] (leaving
    [src] untouched): counters add, gauges take the source value
    (last-writer when folding in order), histogram bins add (bounds must
    match), summaries merge deterministically via {!Quantile.merge}.
    Series missing from [into] are deep-copied in, and help texts missing
    from [into] are adopted.  Merging per-task registries in task-index
    order yields the same exposition bytes at any worker count — see
    {!Rthv_par.Par}.
    @raise Invalid_argument on a kind clash or histogram-bound mismatch. *)

val pp : Format.formatter -> t -> unit
(** Human-readable text dump, one series per line. *)

val to_json : t -> Json.t
(** An array of objects: [{"name", "labels", "kind", ...kind fields}]. *)

val to_prometheus : t -> string
(** Prometheus exposition text format: [# HELP] (for families documented
    via {!set_help}) and [# TYPE] comments, histogram
    [_bucket]/[_sum]/[_count] expansion, summary [quantile] labels. *)
