(** Streaming SLO gauges: observed latency vs the analytic bounds.

    This module judges a run against the analysis: it precomputes the
    equations-(11)/(12)/(16) bounds once ({!Headroom.bounds}) and then
    folds the {!Rthv_core.Irq_fold} spans in one at a time ({!span}) — from
    a live simulation's trace or from a trace-store scan (the
    [Trace_query.run ~on_sample] hook) — keeping per-(source, class) burn
    gauges current as the stream goes by:

    - [rthv_slo_latency_bound_us] — the analytic bound for the series;
    - [rthv_slo_worst_latency_us] — worst observed latency so far;
    - [rthv_slo_burn_ratio] — worst / bound; crossing 1.0 is a violation;
    - [rthv_slo_samples_total], [rthv_slo_violations_total] — counters.

    All are labelled [{source, class}] and registered in the registry
    passed to {!create} (when any), so a live exposition shows bound burn
    while the run is still going.  A series whose class has no finite
    bound (e.g. interposed on an unshaped source) keeps counting samples
    but can never violate. *)

type verdict = {
  sv_source : string;
  sv_class : Rthv_core.Irq_record.classification option;
      (** [None]: the query engine's ["unknown"] class. *)
  sv_count : int;  (** Latency samples folded into this series. *)
  sv_worst_us : float;
  sv_bound_us : float option;  (** [None]: no finite analytic bound. *)
  sv_burn : float option;  (** [worst / bound] when bounded; > 1 is bad. *)
  sv_violations : int;  (** Samples that individually exceeded the bound. *)
}

type t

val create : ?registry:Rthv_obs.Registry.t -> Rthv_core.Config.t -> t
(** Precompute the bounds for [config]'s sources.  With [registry] the
    gauges and counters above are kept current on every {!observe}. *)

val observe :
  t ->
  source:string ->
  cls:Rthv_core.Irq_record.classification option ->
  latency_us:float ->
  unit
(** Fold one latency sample.  Series appear lazily, so samples for a
    (source, class) pair the analysis did not anticipate — including the
    query engine's unknown class — are still counted (unbounded). *)

val span : t -> Rthv_core.Irq_fold.span -> unit
(** {!observe} the span's source, class and {!Rthv_core.Irq_fold.latency_us}:
    the consumer to hand {!Rthv_core.Irq_fold.attach} or
    [Trace_query.run ~on_sample]. *)

val verdicts : t -> verdict list
(** One per series seen so far, sorted by source then class. *)

val ok : t -> bool
(** No series has violated its bound. *)

val pp : Format.formatter -> t -> unit
(** Text table of {!verdicts} plus a one-line summary. *)

val to_json : t -> Rthv_obs.Json.t
(** [{"schema": "rthv-slo/1", "ok": bool, "series": [...]}]. *)
