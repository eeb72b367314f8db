(** Range-checked numeric flag converters for the command-line tools.  An
    out-of-range value is a command-line error: the tool exits 124 with
    ["option '--flag': invalid value 'V', expected ..."], like cmdliner's
    own parse errors. *)

val count : int Cmdliner.Arg.conv
(** An integer >= 1: IRQ, job, capacity and repetition counts. *)

val us : int Cmdliner.Arg.conv
(** A duration in microseconds, >= 1, whose cycle count
    ({!Rthv_engine.Cycles.of_us}) fits in an [int]. *)

val us_or_zero : int Cmdliner.Arg.conv
(** {!us}, or 0 where the flag gives 0 a meaning. *)

val fraction : float Cmdliner.Arg.conv
(** A float in (0, 1]. *)
