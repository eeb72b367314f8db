module Cycles = Rthv_engine.Cycles

type event =
  | Slot_switch of { from_partition : int; to_partition : int }
  | Boundary_deferred of { owner : int; until : Cycles.t }
  | Irq_raised of { irq : int; line : int }
  | Top_handler_run of { irq : int; line : int }
  | Monitor_decision of {
      irq : int;
      line : int;
      arrival : Cycles.t;
      verdict : [ `Admitted | `Denied | `Fallback_direct ];
    }
  | Interposition_start of { irq : int; target : int }
  | Interposition_end of {
      target : int;
      reason : [ `Budget_exhausted | `Queue_empty ];
    }
  | Interposition_crossed_boundary of { target : int }
  | Bottom_handler_start of { irq : int; partition : int }
  | Bottom_handler_done of { irq : int; partition : int }
  | Irq_coalesced of { line : int }

type entry = { time : Cycles.t; event : event }

(* --- the row schema ------------------------------------------------------ *)

module Kind = struct
  type t =
    | Slot_switch
    | Boundary_deferred
    | Irq_raised
    | Top_handler_run
    | Monitor_decision
    | Interposition_start
    | Interposition_end
    | Interposition_crossed_boundary
    | Bottom_handler_start
    | Bottom_handler_done
    | Irq_coalesced
end

type column =
  | Int of string
  | Enum of { key : string; what : string; names : string array }

let verdict_names = [| "admitted"; "denied"; "fallback-direct" |]
let reason_names = [| "budget-exhausted"; "queue-empty" |]

let verdict = Enum { key = "verdict"; what = "verdict"; names = verdict_names }
let reason = Enum { key = "reason"; what = "end reason"; names = reason_names }

(* Kind ids are the on-disk representation: append-only.  A kind's id is
   its position here and in [Kind.t]; names and column keys are the JSONL
   vocabulary, so filters and docs speak one language. *)
let schema =
  Kind.
    [|
      (Slot_switch, "slot_switch", [| Int "from"; Int "to" |]);
      (Boundary_deferred, "boundary_deferred", [| Int "owner"; Int "until" |]);
      (Irq_raised, "irq_raised", [| Int "irq"; Int "line" |]);
      (Top_handler_run, "top_handler", [| Int "irq"; Int "line" |]);
      ( Monitor_decision,
        "monitor_decision",
        [| Int "irq"; Int "line"; Int "arrival"; verdict |] );
      (Interposition_start, "interposition_start", [| Int "irq"; Int "target" |]);
      (Interposition_end, "interposition_end", [| Int "target"; reason |]);
      (Interposition_crossed_boundary, "interposition_crossed_boundary", [| Int "target" |]);
      (Bottom_handler_start, "bottom_handler_start", [| Int "irq"; Int "partition" |]);
      (Bottom_handler_done, "bottom_handler_done", [| Int "irq"; Int "partition" |]);
      (Irq_coalesced, "irq_coalesced", [| Int "line" |]);
    |]

let n_kinds = Array.length schema
let kinds = Array.map (fun (k, _, _) -> k) schema
let kind_name k = (fun (_, name, _) -> name) schema.(k)
let kind_names = List.init n_kinds kind_name
let columns k = (fun (_, _, cols) -> cols) schema.(k)
let arities = Array.map (fun (_, _, cols) -> Array.length cols) schema

let[@inline] kind_id = function
  | Kind.Slot_switch -> 0
  | Kind.Boundary_deferred -> 1
  | Kind.Irq_raised -> 2
  | Kind.Top_handler_run -> 3
  | Kind.Monitor_decision -> 4
  | Kind.Interposition_start -> 5
  | Kind.Interposition_end -> 6
  | Kind.Interposition_crossed_boundary -> 7
  | Kind.Bottom_handler_start -> 8
  | Kind.Bottom_handler_done -> 9
  | Kind.Irq_coalesced -> 10

let () = Array.iteri (fun i k -> assert (kind_id k = i)) kinds

let corrupt fmt =
  Printf.ksprintf (fun s -> raise (Rthv_obs.Tracestore.Corrupt s)) fmt

let bad_kind k = corrupt "event kind %d out of range" k

(* Inlined into every fold's kind match: a range check and a load. *)
let[@inline] kind_of_id k =
  if k < 0 || k >= n_kinds then bad_kind k else Array.unsafe_get kinds k

let kind_of_name name = List.find_index (String.equal name) kind_names

let[@inline] verdict_code = function
  | `Admitted -> 0
  | `Denied -> 1
  | `Fallback_direct -> 2

let verdict_of_code = function
  | 0 -> `Admitted
  | 1 -> `Denied
  | 2 -> `Fallback_direct
  | v -> corrupt "monitor_decision verdict code %d" v

let[@inline] reason_code = function `Budget_exhausted -> 0 | `Queue_empty -> 1

let reason_of_code = function
  | 0 -> `Budget_exhausted
  | 1 -> `Queue_empty
  | r -> corrupt "interposition_end reason code %d" r

let[@inline] set_row (dst : int array) i time kind a b c d =
  dst.(i) <- time;
  dst.(i + 1) <- kind;
  dst.(i + 2) <- a;
  dst.(i + 3) <- b;
  dst.(i + 4) <- c;
  dst.(i + 5) <- d

let encode dst i ~time = function
  | Slot_switch { from_partition; to_partition } ->
      set_row dst i time 0 from_partition to_partition 0 0
  | Boundary_deferred { owner; until } -> set_row dst i time 1 owner until 0 0
  | Irq_raised { irq; line } -> set_row dst i time 2 irq line 0 0
  | Top_handler_run { irq; line } -> set_row dst i time 3 irq line 0 0
  | Monitor_decision { irq; line; arrival; verdict } ->
      set_row dst i time 4 irq line arrival (verdict_code verdict)
  | Interposition_start { irq; target } -> set_row dst i time 5 irq target 0 0
  | Interposition_end { target; reason } ->
      set_row dst i time 6 target (reason_code reason) 0 0
  | Interposition_crossed_boundary { target } ->
      set_row dst i time 7 target 0 0 0
  | Bottom_handler_start { irq; partition } ->
      set_row dst i time 8 irq partition 0 0
  | Bottom_handler_done { irq; partition } ->
      set_row dst i time 9 irq partition 0 0
  | Irq_coalesced { line } -> set_row dst i time 10 line 0 0 0

let decode ~kind ~a ~b ~c ~d =
  match kind_of_id kind with
  | Kind.Slot_switch -> Slot_switch { from_partition = a; to_partition = b }
  | Kind.Boundary_deferred -> Boundary_deferred { owner = a; until = b }
  | Kind.Irq_raised -> Irq_raised { irq = a; line = b }
  | Kind.Top_handler_run -> Top_handler_run { irq = a; line = b }
  | Kind.Monitor_decision ->
      Monitor_decision
        { irq = a; line = b; arrival = c; verdict = verdict_of_code d }
  | Kind.Interposition_start -> Interposition_start { irq = a; target = b }
  | Kind.Interposition_end ->
      Interposition_end { target = a; reason = reason_of_code b }
  | Kind.Interposition_crossed_boundary ->
      Interposition_crossed_boundary { target = a }
  | Kind.Bottom_handler_start -> Bottom_handler_start { irq = a; partition = b }
  | Kind.Bottom_handler_done -> Bottom_handler_done { irq = a; partition = b }
  | Kind.Irq_coalesced -> Irq_coalesced { line = a }

(* --- the ring ------------------------------------------------------------ *)

type row_fn =
  time:Cycles.t -> kind:int -> a:int -> b:int -> c:int -> d:int -> unit

(* One int array of [stride]-int rows, like Event_arena: a record stores
   six ints and allocates nothing once the ring has reached [capacity] —
   this is what lets the flight recorder ride along on every run (see
   Flight_recorder) without perturbing the allocation benchmarks.  The
   array starts at [first_block] rows and doubles up to [capacity], so a
   short run pays for the events it records rather than for a retention
   bound sized for the longest run.  [total] bounds every traversal. *)
type t = {
  mutable rows : int array;
  capacity : int;  (* most rows retained; the array never exceeds it *)
  mutable pos : int;  (* word offset of the next row written *)
  mutable total : int;  (* events ever recorded *)
  lost : int;  (* events an earlier ring dropped before this one's first *)
  mutable spill : row_fn option;
}

let stride = 6

(* 256 words is the largest block the minor heap takes: 42 rows of six
   ints fit, so a ring that never outgrows them is one minor allocation. *)
let first_block = 256 / stride

let create ?(capacity = 65_536) ?(dropped = 0) () =
  if capacity <= 0 then invalid_arg "Hyp_trace.create: capacity must be positive";
  if dropped < 0 then invalid_arg "Hyp_trace.create: dropped must be >= 0";
  let rows = Array.make (stride * Stdlib.min capacity first_block) 0 in
  { rows; capacity; pos = 0; total = 0; lost = dropped; spill = None }

let capacity t = t.capacity

(* Hooks compose into one closure, so a record pays one call whatever the
   number of hooks and allocates nothing. *)
let set_row_spill t (f : row_fn) =
  t.spill <-
    Some
      (match t.spill with
      | None -> f
      | Some g ->
          fun ~time ~kind ~a ~b ~c ~d ->
            g ~time ~kind ~a ~b ~c ~d;
            f ~time ~kind ~a ~b ~c ~d)

let set_spill t f =
  set_row_spill t (fun ~time ~kind ~a ~b ~c ~d ->
      f ~time (decode ~kind ~a ~b ~c ~d))

(* The write offset reached the end of the array.  Below [capacity] the
   ring has never wrapped, so its rows fill the array in order: double it
   and keep writing after the old end.  At [capacity], wrap. *)
let grow_or_wrap t =
  let n = Array.length t.rows in
  if n = stride * t.capacity then 0
  else begin
    let rows = Array.make (stride * Stdlib.min t.capacity (2 * n / stride)) 0 in
    Array.blit t.rows 0 rows 0 n;
    t.rows <- rows;
    n
  end

let record_row t ~time ~kind ~a ~b ~c ~d =
  let rows = t.rows and i = t.pos in
  set_row rows i time kind a b c d;
  let i = i + stride in
  t.pos <- (if i = Array.length rows then grow_or_wrap t else i);
  t.total <- t.total + 1;
  match t.spill with None -> () | Some f -> f ~time ~kind ~a ~b ~c ~d

let record t ~time ev =
  let rows = t.rows and i = t.pos in
  encode rows i ~time ev;
  record_row t ~time ~kind:rows.(i + 1) ~a:rows.(i + 2) ~b:rows.(i + 3)
    ~c:rows.(i + 4) ~d:rows.(i + 5)

let length t = Stdlib.min t.total t.capacity
let recorded t = t.lost + t.total
let dropped t = t.lost + Stdlib.max 0 (t.total - t.capacity)

let iter_rows t (f : row_fn) =
  (* Until the first wrap the rows sit in order from offset 0, whatever
     the array's current size; after it the array holds [capacity] rows
     and the oldest is the next one to be overwritten. *)
  let rows = t.rows and words = stride * t.capacity in
  let start = if t.total <= t.capacity then 0 else t.pos in
  for k = 0 to length t - 1 do
    let j = (start + (stride * k)) mod words in
    f ~time:rows.(j) ~kind:rows.(j + 1) ~a:rows.(j + 2) ~b:rows.(j + 3)
      ~c:rows.(j + 4) ~d:rows.(j + 5)
  done

let iter t f =
  iter_rows t (fun ~time ~kind ~a ~b ~c ~d ->
      f { time; event = decode ~kind ~a ~b ~c ~d })

let to_list t =
  let acc = ref [] in
  iter t (fun entry -> acc := entry :: !acc);
  List.rev !acc

let pp_event ppf = function
  | Slot_switch { from_partition; to_partition } ->
      Format.fprintf ppf "slot switch p%d -> p%d" from_partition to_partition
  | Boundary_deferred { owner; until } ->
      Format.fprintf ppf "boundary deferred for p%d until %a" owner Cycles.pp
        until
  | Irq_raised { irq; line } ->
      Format.fprintf ppf "irq#%d raised (line %d)" irq line
  | Top_handler_run { irq; line } ->
      Format.fprintf ppf "top handler irq#%d (line %d)" irq line
  | Monitor_decision { irq; line; arrival; verdict } ->
      Format.fprintf ppf "monitor %s irq#%d (line %d, arrived %a)"
        (match verdict with
        | `Admitted -> "admitted"
        | `Denied -> "denied"
        | `Fallback_direct -> "fell back to direct for")
        irq line Cycles.pp arrival
  | Interposition_start { irq; target } ->
      Format.fprintf ppf "interposition into p%d for irq#%d" target irq
  | Interposition_end { target; reason } ->
      Format.fprintf ppf "interposition in p%d ended (%s)" target
        (match reason with
        | `Budget_exhausted -> "budget exhausted"
        | `Queue_empty -> "queue empty")
  | Interposition_crossed_boundary { target } ->
      Format.fprintf ppf "interposition in p%d crossed a slot boundary" target
  | Bottom_handler_start { irq; partition } ->
      Format.fprintf ppf "bottom handler start irq#%d (p%d)" irq partition
  | Bottom_handler_done { irq; partition } ->
      Format.fprintf ppf "bottom handler done irq#%d (p%d)" irq partition
  | Irq_coalesced { line } ->
      Format.fprintf ppf "irq coalesced on already-pending line %d" line

let pp_entry ppf { time; event } =
  Format.fprintf ppf "[%a] %a" Cycles.pp time pp_event event

let pp ppf t =
  (if dropped t > 0 then
     Format.fprintf ppf "(%d older entries dropped)@." (dropped t));
  iter t (fun entry -> Format.fprintf ppf "%a@." pp_entry entry)
