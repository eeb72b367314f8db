(** Columnar binary trace store ([rthv-tracestore/1]).

    A batched, allocation-light container for timestamped integer event
    rows, designed so that recording a million events costs array stores
    plus one encode per ~8k-event block — not one allocation per event —
    and so that a later scan can skip whole blocks from a tiny per-block
    index without decoding them.

    This layer is deliberately generic: a row is [(time, kind, a, b, c, d)]
    with per-kind argument arities fixed at file creation, plus an opaque
    partition bitmask used only for block pruning.  The mapping between
    simulator events and rows lives in [Rthv_core.Trace_store]; nothing
    here knows what a partition or an IRQ is.

    {2 On-disk layout}

    {v
    file   := magic | u8 n_kinds | n_kinds x u8 arity | block*
    block  := u32le header_len | header | u32le body_len | body
    header := varint n_events | zigzag min_time | zigzag max_time
              | varint kind_mask | varint pmask
    body   := time column (zigzag deltas, first relative to min_time)
              | kind column (u8 per event)
              | arg column a..d (zigzag, only rows whose kind has the arg)
    v}

    All varints are LEB128; signed values are zigzag-mapped first.  The
    header is length-prefixed separately from the body so a reader can
    evaluate the block index (time range, kind bitmap, partition bitmap)
    and [seek] past the body without touching it — that is the predicate
    pushdown. *)

exception Corrupt of string
(** Raised by readers on malformed input (bad magic, truncated block,
    out-of-range kind).  The message names the offending structure. *)

val default_block_events : int
(** Events buffered per block before an automatic flush (8192). *)

val max_kinds : int
(** Kind ids live in a bitmap inside one OCaml [int]; at most 62 kinds. *)

(** {2 Writing} *)

module Writer : sig
  type t

  val create : ?block_events:int -> arities:int array -> out_channel -> t
  (** A writer whose rows have [Array.length arities] kinds, kind [k]
      carrying [arities.(k)] (0-4) argument columns.  Writes the file
      header immediately.  The channel is owned by the caller.
      @raise Invalid_argument on a non-positive [block_events], more than
      {!max_kinds} kinds, or an arity outside [0..4]. *)

  val append :
    t -> time:int -> kind:int -> pmask:int -> a:int -> b:int -> c:int -> d:int -> unit
  (** Buffer one row; flushes the current block automatically when full.
      [pmask] is OR-ed into the block's partition bitmap.  Argument columns
      beyond the kind's arity are ignored (pass 0).
      @raise Invalid_argument on an out-of-range [kind]. *)

  val flush_block : t -> unit
  (** Encode and write the buffered partial block, if any, with one
      [output] of a buffer the writer reuses for every block.  Does not
      flush the underlying channel. *)

  val events_written : t -> int
  (** Rows appended so far (buffered or flushed). *)

  val blocks_written : t -> int
end

(** {2 Scanning} *)

type filter = {
  t_min : int option;  (** Drop rows with [time < t_min]. *)
  t_max : int option;  (** Drop rows with [time > t_max]. *)
  kind_mask : int option;  (** Keep kind [k] iff bit [k] is set. *)
  pmask : int option;
      (** Block-pruning only: skip blocks whose stored partition bitmap
          does not intersect this mask.  Per-row partition filtering is the
          caller's business (the store does not interpret the bits). *)
}

val pass_all : filter

type stats = {
  s_blocks : int;  (** Blocks present in the file. *)
  s_blocks_scanned : int;  (** Blocks decoded (not pruned by the index). *)
  s_rows : int;  (** Rows in scanned blocks. *)
  s_matched : int;  (** Rows that passed the time/kind filters. *)
}

val scan :
  ?filter:filter ->
  string ->
  f:(time:int -> kind:int -> a:int -> b:int -> c:int -> d:int -> unit) ->
  stats
(** Stream every matching row of the file at [path] through [f], oldest
    block first, without materializing the store: decode buffers are
    reused across blocks, and blocks excluded by the index are skipped
    with a [seek].  Nothing is allocated from what a block declares
    before it is checked against the file: a header or body length past
    the end of the file, or more rows than half the body's bytes (each
    row takes at least a time varint and a kind byte), is [Corrupt].
    @raise Corrupt on malformed input, [Sys_error] on IO failure. *)

val arities : string -> int array
(** The per-kind arity table from the file header. *)
