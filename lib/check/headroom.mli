(** Bound headroom: the analytic latency bounds measured runs are judged
    against.

    For every configured source and handling class this module computes the
    paper's latency bound — equations (11)/(12) for delayed (and, a
    fortiori, direct) handling, equation (16) for interposed handling.
    {!Slo} compares each observed latency with it as the run goes by:
    headroom = bound - worst observed; a negative headroom on a conformant
    scenario means either the analysis or the simulator is wrong, which is
    exactly what the check is for. *)

type bound = {
  hb_source : string;
  hb_class : string;  (** ["direct" | "interposed" | "delayed"]. *)
  hb_bound_us : float option;
      (** [None] when the analysis yields no finite bound (busy window
          diverged, or the class cannot occur — interposed on an unshaped
          source). *)
}

val classes : string list
(** The three handling classes, in report order. *)

val bounds : Rthv_core.Config.t -> bound list
(** One entry per source x class, in configuration order. *)

val bound_for :
  bound list -> source:string -> cls:string -> float option
