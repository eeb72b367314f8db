(** Minimal JSON values: enough to emit and re-read the telemetry formats
    (metrics snapshots, Chrome Trace Event JSON, JSONL trace lines) without
    an external dependency.

    The emitter produces RFC 8259 output (non-finite floats become
    [null]); the parser accepts any RFC 8259 document nested at most 512
    levels deep, which keeps the round-trip tests honest against
    third-party consumers such as [jq] and Perfetto.

    Numbers render the same way on every platform, and the bytes are part
    of the contract of every document that carries a digest (the
    ["rthv-cert/1"] artifacts): an [Int] in decimal; a [Float] that is
    integral with magnitude below 1e15 as ["%.1f"] (its digits and [.0],
    [-0.0] kept); any other finite [Float] as ["%.12g"], never a
    shortest-round-trip rendering. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** JSON string escaping of the characters that need it (quote, backslash,
    control characters). *)

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val parse : string -> (t, string) result
(** Parse one complete document; trailing whitespace is allowed, trailing
    garbage is an error.  Errors carry a character offset
    (["at offset N: ..."]); a container opened deeper than 512 levels is
    an error at its bracket, so no input exhausts the stack. *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on anything else. *)

val to_int : t -> int option
(** [Int] directly, or a [Float] with an integral value. *)

val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option
