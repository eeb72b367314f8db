(** Structured exporters for {!Hyp_trace} timelines.

    Two machine-readable complements to the {!Vcd_export} waveform:

    - {b Chrome Trace Event JSON} — loads in Perfetto or
      [chrome://tracing].  One track (thread) per partition the trace
      names (and partition 0, which owns the first slot) carrying the
      TDMA slot ownership as begin/end slices and each admitted
      interposition as a nested slice; a separate hypervisor track carries
      top handlers, monitor verdicts, coalesced raises and deferral marks
      as instant events.

    - {b JSONL} — one compact JSON object per trace row, timestamps in
      cycles (lossless): its ["ev"] is the kind name and its other keys
      the columns {!Hyp_trace.columns} declares.  The format round-trips: {!entries_of_jsonl_string}
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

type jsonl = {
  entries : Hyp_trace.entry list;  (** Oldest first. *)
  dropped : int;
      (** Entries the recording ring had dropped before the first one
          here: the ["dropped"] count of the [{"ev":"meta", ...}] line a
          flight dump starts with (the largest, if there are several), 0
          for plain JSONL. *)
}

val entries_of_jsonl_string : string -> (jsonl, string) result
(** Blank lines are skipped and meta lines contribute only their dropped
    count; the first malformed line aborts with its line number. *)

val load_jsonl : path:string -> (jsonl, string) result
(** {!entries_of_jsonl_string} of the file; an unreadable file (a missing
    one, say) is an [Error] too. *)

(** {2 Rebuilding a trace} *)

val trace_of_entries : ?dropped:int -> Hyp_trace.entry list -> Hyp_trace.t
(** A fresh trace buffer (capacity fitted to the list) holding exactly
    these entries, after [dropped] (default 0) older ones it lost — the
    bridge from a re-read JSONL file back into the exporters and the
    {!Rthv_check} oracle.  A truncated dump's Chrome slots then start at
    its first slot switch, and its audit is the RTHV107 warning. *)
