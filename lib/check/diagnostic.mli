(** Structured diagnostics shared by the static configuration analyzer
    ({!Lint}) and the trace-invariant oracle ({!Trace_oracle}).

    Every finding carries a stable rule code (["RTHV0xx"] for static rules,
    ["RTHV1xx"] for trace invariants), a severity, a human-oriented location
    string (partition, source or trace position), a message, and an optional
    remediation hint.  Diagnostics render either as compiler-style text or as
    JSON objects for CI consumption. *)

type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  loc : string;
  message : string;
  hint : string option;
}

val error : code:string -> loc:string -> ?hint:string -> string -> t
val warning : code:string -> loc:string -> ?hint:string -> string -> t
val info : code:string -> loc:string -> ?hint:string -> string -> t

val severity_name : severity -> string
(** ["error"], ["warning"] or ["info"]. *)

val is_error : t -> bool

val errors : t list -> t list

val count : severity -> t list -> int

val sort : t list -> t list
(** Stable sort, most severe first, then by code and location. *)

val dedupe : t list -> (t * int) list
(** {!sort}, then collapse runs of identical findings (all fields equal)
    into one entry with its multiplicity — the deterministic, deduplicated
    view the CLI renders and the certificate serializes. *)

val pp : Format.formatter -> t -> unit
(** One finding: ["error[RTHV005] partition ctl: message" + hint line]. *)

val pp_counted : Format.formatter -> t * int -> unit
(** {!pp} with an ["  (xN)"] multiplicity suffix when [N > 1]. *)

val pp_report : Format.formatter -> t list -> unit
(** All findings, {!dedupe}d (sorted, repeats collapsed with a
    multiplicity suffix), followed by a one-line severity tally over the
    {e full} list — so the totals still count every occurrence. *)

val to_json : ?extra:(string * string) list -> t -> string
(** One JSON object; [extra] prepends additional string fields (e.g. the
    scenario name).  Strings are escaped per RFC 8259. *)

