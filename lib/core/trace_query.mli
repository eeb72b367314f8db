(** Streaming aggregation over a binary trace store.

    One pass over a {!Trace_store} file — block-index pushdown included —
    computing event counts, event rates, or end-to-end IRQ latency
    percentiles without materializing the store.  Latency aggregation runs
    the {!Irq_fold} over the scanned rows, so each sample carries the class
    the simulator gave the IRQ.  Percentiles come from the shared P²
    digests ({!Rthv_obs.Quantile}), which keeps the memory footprint
    independent of the store size. *)

type agg = Count | Rate | Latency

type group_by = By_none | By_partition | By_kind | By_class | By_source
(** [By_kind] groups by event kind (count/rate).  [By_class] and
    [By_source] apply to latency aggregation, which attributes samples to
    a handling class and (via the line map) a source. *)

type group = {
  g_key : string;
  g_count : int;  (** Events (count/rate) or latency samples. *)
  g_digest : Rthv_obs.Quantile.t option;  (** Latency aggregation only. *)
}

type t = {
  q_agg : agg;
  q_group_by : group_by;
  q_stats : Rthv_obs.Tracestore.stats;  (** Pushdown evidence. *)
  q_matched : int;  (** Total events counted / latency samples. *)
  q_span_us : float;
      (** Time extent of the matched events in microseconds (0 when fewer
          than two); the denominator of the rate aggregation. *)
  q_groups : group list;  (** Sorted by key (numeric when possible). *)
}

val agg_name : agg -> string
val group_by_name : group_by -> string

val run :
  ?filter:Trace_store.filter ->
  ?config:Config.t ->
  ?on_sample:(Irq_fold.span -> unit) ->
  agg:agg ->
  group_by:group_by ->
  string ->
  t
(** Aggregate the store at [path].  For latency aggregation the kind
    filter is fixed to {!Irq_fold.latency_kinds} (a [filter.kinds] is
    ignored) and [filter.partition] selects the completing partition;
    [on_sample] additionally streams every kept sample's span — the SLO
    hook.  Group keys of the class grouping are the class names plus
    ["unknown"] for IRQs whose class events fell outside the scanned
    window.  [config], the configuration the store was recorded from, maps
    lines to partitions (count/rate) and names the sources (latency),
    which are ["line<N>"] otherwise.
    @raise Invalid_argument on a group_by that does not fit the
    aggregation.
    @raise Rthv_obs.Tracestore.Corrupt on malformed input. *)

val to_json : ?store:string -> t -> Rthv_obs.Json.t
(** The [rthv-query/1] document. *)

val pp : Format.formatter -> t -> unit
(** Text table of the groups plus the scan statistics. *)
