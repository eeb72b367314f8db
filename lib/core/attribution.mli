(** Latency attribution over per-IRQ spans.

    Folds {!Irq_fold.span}s into per-(source, handling class) waterfalls:
    one {!Rthv_obs.Quantile} digest per latency component plus the
    end-to-end distribution and the single worst span.  Memory is
    O(groups), not O(IRQs).  Feed {!record} to {!Irq_fold.attach} around a
    simulation, then read {!rows}. *)

type t

val create : unit -> t

val record : t -> Irq_fold.span -> unit

type stats = { st_p50 : float; st_p99 : float; st_max : float; st_mean : float }

type row = {
  r_source : string;
  r_class : Irq_record.classification option;
  r_count : int;
  r_latency : stats;
      (** Of [to_us completion -. to_us arrival], the sum of the
          components. *)
  r_components : (string * stats) list;
      (** Per-component stats in causal order; only components that
          occurred in this group appear. *)
  r_worst : Irq_fold.span option;
      (** The span with the maximum end-to-end latency. *)
}

val rows : t -> row list
(** Sorted by source name, then class name (the report's order). *)

val total_spans : t -> int
