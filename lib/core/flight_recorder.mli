(** Crash flight recorder.

    When enabled, every {!Hyp_sim} run keeps its bounded {!Hyp_trace} ring
    (the last N scheduling events, allocation-free at steady state) and the
    recorder dumps it to a JSONL file when something goes wrong:

    - an oracle violation raised by the audit hook (RTHV1xx errors),
    - an uncaught exception escaping [Hyp_sim.run],
    - a negative-headroom report ([rthv_trace report] exit path).

    A dump is the standard {!Trace_export} JSONL stream prefixed with one
    [{"ev":"meta", ...}] line carrying the reason, schema, and ring
    statistics; {!Trace_export.load_jsonl} keeps only the meta line's
    dropped count, so every dump re-imports through
    [rthv_trace --from-jsonl] and a truncated one still says so.

    Enablement (capacity, output directory) is process-wide and normally
    set once at startup — via {!enable}, the [--flight-dir] CLI options, or
    the [RTHV_FLIGHT_DIR] environment variable.  The trace of the most
    recent run is tracked per domain, so parallel sweep workers never race
    on it; dump filenames carry the domain id and a per-domain sequence
    number. *)

val enable : ?capacity:int -> dir:string -> unit -> unit
(** Turn the recorder on: subsequent [Hyp_sim.create] calls attach a ring
    of [capacity] entries (default 4096) and dumps are written under [dir]
    (created on first dump if missing). *)

val disable : unit -> unit

val enabled : unit -> bool

val capacity : unit -> int
(** Ring capacity attached to new simulations while enabled. *)

val note_run : Hyp_trace.t -> unit
(** Called by [Hyp_sim.run]: marks [trace] as the flight ring of the
    current run on this domain. *)

val dump : reason:string -> ?detail:string -> unit -> string option
(** Write the current domain's flight ring to
    [dir/flight-d<domain>-<seq>-<reason>.jsonl].  Returns the path, or
    [None] when the recorder is disabled or no run has been noted.  Never
    raises: file-system errors are reported on stderr (the recorder must
    not mask the failure that triggered it). *)

val last_dump : unit -> string option
(** Path of the most recent dump written by this domain, if any. *)
