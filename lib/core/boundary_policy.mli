(** What happens to a bottom handler that is still executing when its own
    partition's slot ends.

    Promoted from the former [finish_bh_at_boundary] boolean so that boundary
    semantics are a first-class policy alongside {!Admission} and
    {!Slot_plan}. *)

type t =
  | Finish_bottom_handler
      (** The paper's semantics (and the default): the running handler is
          allowed to finish before the partition switch — an overrun bounded
          by the handler's remaining budget, symmetric to the bounded spill
          of an interposed handler crossing a boundary. *)
  | Strict_cut
      (** Strict TDMA: the handler is cut at the boundary, keeps its
          remaining work at the queue head and resumes in the partition's
          next slot. *)

val default : t
(** {!Finish_bottom_handler}. *)

val defers : t -> bool
(** Whether a slot switch may be deferred for a mid-flight bottom handler. *)
