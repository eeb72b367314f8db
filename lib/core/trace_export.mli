(** Structured exporters for {!Hyp_trace} timelines.

    Two machine-readable complements to the {!Vcd_export} waveform:

    - {b Chrome Trace Event JSON} — loads in Perfetto or
      [chrome://tracing].  One track (thread) per partition carrying the
      TDMA slot ownership as begin/end slices and each admitted
      interposition as a nested slice; a separate hypervisor track carries
      top handlers, monitor verdicts, coalesced raises and deferral marks
      as instant events.

    - {b JSONL} — one compact JSON object per trace entry, timestamps in
      cycles (lossless).  The format round-trips: {!entries_of_jsonl_string}
      re-reads what {!jsonl_string} wrote, so recorded timelines can be
      re-exported or audited offline. *)

(** {2 Chrome Trace Event JSON} *)

val chrome_json :
  ?partition_names:string array -> Hyp_trace.t -> Rthv_obs.Json.t
(** The full document: [{"traceEvents": [...], "displayTimeUnit": "ns"}].
    [partition_names] decorates the per-partition thread names. *)

val chrome_string : ?partition_names:string array -> Hyp_trace.t -> string

val save_chrome :
  ?partition_names:string array ->
  path:string ->
  Hyp_trace.t ->
  unit

(** {2 JSONL} *)

val jsonl_line : Hyp_trace.entry -> string
(** One entry as a single-line JSON object (no trailing newline). *)

val jsonl_string : Hyp_trace.t -> string
(** All retained entries, one per line, trailing newline included. *)

val save_jsonl : path:string -> Hyp_trace.t -> unit

val entry_of_jsonl : string -> (Hyp_trace.entry, string) result

val entries_of_jsonl_string : string -> (Hyp_trace.entry list, string) result
(** Blank lines are skipped; the first malformed line aborts with its line
    number. *)

val load_jsonl : path:string -> (Hyp_trace.entry list, string) result
(** {!entries_of_jsonl_string} of the file; an unreadable file (a missing
    one, say) is an [Error] too. *)

(** {2 Rebuilding a trace} *)

val trace_of_entries : Hyp_trace.entry list -> Hyp_trace.t
(** A fresh trace buffer (capacity fitted to the list) holding exactly
    these entries — the bridge from a re-read JSONL file back into the
    exporters and the {!Rthv_check} oracle. *)
