(** Opt-in simulator auditing.

    Installing the hook makes every {!Rthv_core.Hyp_sim} simulation created
    while it is installed fold its events through {!Trace_oracle} as they
    are recorded, on the trace's spill hook (a small ring is attached if
    the caller passed no trace), and rule when its run finishes.  The audit
    sees the whole run whatever its length.  Error-severity findings raise
    {!Audit_failure}, so an entire test suite can run audited by installing
    the hook once in its main. *)

exception Audit_failure of Diagnostic.t list
(** Raised (by the default [fail]) when an audited run violates a trace
    invariant.  A human-readable printer is registered with
    {!Printexc.register_printer}. *)

val install : ?fail:(Diagnostic.t list -> unit) -> unit -> unit
(** Install the audit hook.  Each simulation created from now on is
    audited against its configuration; when its run finishes with any
    Error-severity diagnostics, the {!Rthv_core.Flight_recorder} dumps its
    ring (if enabled) and [fail] is called with the full (sorted) list.
    The default [fail] raises {!Audit_failure}.  A live audit folds every
    event, so it never reports [RTHV107]. *)

val uninstall : unit -> unit

val installed : unit -> bool
