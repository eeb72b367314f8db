(** Registry metrics of a live simulation, read off its trace events.

    {!Hyp_sim.create} attaches one to every simulation created while a
    registry is installed.  It counts monitor decisions, interpositions,
    coalesced raises, slot switches, boundary crossings and deferrals per
    event, and folds each completed IRQ's {!Irq_fold.span} into
    [rthv_irq_completed_total], [rthv_irq_latency_us] (the simulated
    counterpart of the eq. (11)/(12)/(16) bounds), [rthv_irq_spans_total]
    and [rthv_irq_component_us].  The simulation reports the two quantities
    no event carries itself: per-slot stolen time (the eq. (14)
    interference) and the final clock. *)

type t

val attach : Rthv_obs.Registry.t -> Config.t -> Hyp_trace.t -> t
(** Document the families in the registry and add the fold to the trace's
    spill hooks. *)

val slot_closed : t -> owner:int -> Rthv_engine.Cycles.t -> unit
(** One [rthv_stolen_slot_us{partition}] sample: the time stolen from
    [owner]'s slot that just ended. *)

val finished : t -> Rthv_engine.Cycles.t -> unit
(** Set [rthv_sim_time_us] to the final clock. *)
