(* The per-IRQ fold: trace rows in, one span per completed IRQ out.  See
   irq_fold.mli for the classification rule. *)

module Cycles = Rthv_engine.Cycles
module K = Hyp_trace.Kind

type span = {
  irq : int;
  line : int;
  source : string;
  partition : int;
  cls : Irq_record.classification option;
  arrival : Cycles.t;
  top_start : Cycles.t;
  top_end : Cycles.t;
  decision : Cycles.t;
  bh_start : Cycles.t;
  completion : Cycles.t;
}

let class_name = function
  | Some c -> Irq_record.classification_name c
  | None -> "unknown"

let latency_us sp = Cycles.to_us (Cycles.( - ) sp.completion sp.arrival)

(* The component between the decision and the first bottom-half cycle is
   the wait the paper's bounds differ on: delayed handling waits for the
   subscriber's slot (eqs. 11-12), interposed handling only for the
   scheduler manipulation (eq. 16), direct handling is already in-slot. *)
let wait_component = function
  | Some Irq_record.Interposed -> "interposed_wait"
  | Some Irq_record.Delayed -> "slot_wait"
  | Some Irq_record.Direct | None -> "queue_wait"

let all_component_names =
  [
    "top_wait"; "top_handler"; "decision_wait"; "queue_wait"; "slot_wait";
    "interposed_wait"; "bottom_handler";
  ]

let components sp =
  let us = Cycles.to_us in
  let arrival = us sp.arrival and top_start = us sp.top_start in
  let top_end = us sp.top_end and decision = us sp.decision in
  let bh_start = us sp.bh_start and completion = us sp.completion in
  [
    ("top_wait", top_start -. arrival);
    ("top_handler", top_end -. top_start);
    ("decision_wait", decision -. top_end);
    (wait_component sp.cls, bh_start -. decision);
    ("bottom_handler", completion -. bh_start);
  ]

(* In-flight IRQs hold one row of [width] ints in an open-addressing table:
   an IRQ's home row is [irq land (capacity - 1)] (the Sim_state scheme),
   and a taken row sends it to the next one.  A free row has [f_irq] = -1.
   The table doubles when more than half its rows are live, so its size
   follows the IRQs in flight, not the distance between their ids; dense
   simulator ids land in their home rows.  [f_verdict] is the row's verdict
   code, -1 for none. *)
let f_irq = 0
let f_line = 1
let f_arrival = 2
let f_top_end = 3 (* the arrival until the top handler ran *)
let f_owner = 4 (* slot owner when the top handler ran, or -1 *)
let f_decision = 5 (* verdict time, or -1 *)
let f_verdict = 6
let f_bh_start = 7 (* or -1 *)
let width = 8

type t = {
  on_span : span -> unit;
  c_th : Cycles.t array;  (* by line *)
  names : (int, string) Hashtbl.t;  (* by line, filled on first use *)
  mutable owner : int;  (* current slot owner; partition 0 owns t = 0 *)
  mutable rows : int array;
  mutable live : int;  (* rows in use *)
}

let create ?config on_span =
  let sources = match config with Some c -> c.Config.sources | None -> [] in
  let lines =
    List.fold_left (fun m (s : Config.source) -> max m (s.Config.line + 1)) 0
      sources
  in
  let c_th = Array.make lines 0 and names = Hashtbl.create 8 in
  List.iter
    (fun (s : Config.source) ->
      c_th.(s.Config.line) <- s.Config.c_th;
      Hashtbl.replace names s.Config.line s.Config.name)
    sources;
  let rows = Array.make (64 * width) (-1) in
  { on_span; c_th; names; owner = 0; rows; live = 0 }

let source_name t line =
  match Hashtbl.find t.names line with
  | name -> name
  | exception Not_found ->
      let name = Printf.sprintf "line%d" line in
      Hashtbl.add t.names line name;
      name

(* The row holding [irq], or else the free row that ends its probe. *)
let probe rows irq =
  let mask = (Array.length rows / width) - 1 in
  let s = ref (irq land mask) in
  while
    let held = rows.(!s * width) in
    held >= 0 && held <> irq
  do
    s := (!s + 1) land mask
  done;
  !s * width

let grow t =
  let old = t.rows in
  t.rows <- Array.make (2 * Array.length old) (-1);
  for r = 0 to (Array.length old / width) - 1 do
    let irq = old.(r * width) in
    if irq >= 0 then Array.blit old (r * width) t.rows (probe t.rows irq) width
  done

(* Free row [r], then re-place the rest of its probe run: a row whose
   probe now stops at an earlier free row moves there. *)
let remove t r =
  let rows = t.rows in
  let mask = (Array.length rows / width) - 1 in
  rows.(r + f_irq) <- -1;
  t.live <- t.live - 1;
  let s = ref (((r / width) + 1) land mask) in
  while rows.(!s * width) >= 0 do
    let from = !s * width in
    let dst = probe rows rows.(from) in
    if dst <> from then begin
      Array.blit rows from rows dst width;
      rows.(from) <- -1
    end;
    s := (!s + 1) land mask
  done

(* Negative ids cannot come from the simulator; a corrupt store's are
   ignored rather than mistaken for free rows.  A repeated raise of a live
   id restarts its row. *)
let raised t ~time ~irq ~line =
  if irq >= 0 then begin
    if 2 * (t.live + 1) > Array.length t.rows / width then grow t;
    let r = probe t.rows irq in
    if t.rows.(r + f_irq) < 0 then t.live <- t.live + 1;
    Array.fill t.rows r width (-1);
    t.rows.(r + f_irq) <- irq;
    t.rows.(r + f_line) <- line;
    t.rows.(r + f_arrival) <- time;
    t.rows.(r + f_top_end) <- time
  end

(* Row of a live IRQ, or -1 when its raise was not folded. *)
let live t irq =
  if irq < 0 then -1
  else
    let r = probe t.rows irq in
    if t.rows.(r + f_irq) = irq then r else -1

let top_handler t ~time ~irq =
  let r = live t irq in
  if r >= 0 then begin
    t.rows.(r + f_top_end) <- time;
    t.rows.(r + f_owner) <- t.owner
  end

let decided t ~time ~irq verdict =
  let r = live t irq in
  if r >= 0 then begin
    t.rows.(r + f_decision) <- time;
    t.rows.(r + f_verdict) <- verdict
  end

let bh_started t ~time ~irq =
  let r = live t irq in
  if r >= 0 && t.rows.(r + f_bh_start) < 0 then t.rows.(r + f_bh_start) <- time

let admitted = Hyp_trace.verdict_code `Admitted
let denied = Hyp_trace.verdict_code `Denied
let fallback_direct = Hyp_trace.verdict_code `Fallback_direct

(* The classifier.  The options are constants, so nothing is allocated. *)
let classify ~verdict ~owner ~partition =
  if verdict = admitted then Some Irq_record.Interposed
  else if verdict = denied then Some Irq_record.Delayed
  else if verdict = fallback_direct then Some Irq_record.Direct
  else if owner < 0 then None
  else if owner = partition then Some Irq_record.Direct
  else Some Irq_record.Delayed

let completed t ~time ~irq ~partition =
  let r = live t irq in
  if r >= 0 then begin
    let row = t.rows in
    let line = row.(r + f_line) and top_end = row.(r + f_top_end) in
    let owner = row.(r + f_owner) and decision = row.(r + f_decision) in
    let bh_start = row.(r + f_bh_start) and arrival = row.(r + f_arrival) in
    let verdict = row.(r + f_verdict) in
    remove t r;
    let c_th =
      if owner >= 0 && line >= 0 && line < Array.length t.c_th then
        t.c_th.(line)
      else 0
    in
    t.on_span
      {
        irq;
        line;
        source = source_name t line;
        partition;
        cls = classify ~verdict ~owner ~partition;
        arrival;
        top_start = Cycles.( - ) top_end c_th;
        top_end;
        decision = (if decision >= 0 then decision else top_end);
        bh_start = (if bh_start >= 0 then bh_start else time);
        completion = time;
      }
  end

let row t ~time ~kind ~a ~b ~c:_ ~d =
  match Hyp_trace.kind_of_id kind with
  | K.Slot_switch -> t.owner <- b
  | K.Irq_raised -> raised t ~time ~irq:a ~line:b
  | K.Top_handler_run -> top_handler t ~time ~irq:a
  | K.Monitor_decision -> decided t ~time ~irq:a d
  | K.Bottom_handler_start -> bh_started t ~time ~irq:a
  | K.Bottom_handler_done -> completed t ~time ~irq:a ~partition:b
  | K.Boundary_deferred | K.Interposition_start | K.Interposition_end
  | K.Interposition_crossed_boundary | K.Irq_coalesced ->
      ()

let latency_kinds =
  List.map Hyp_trace.kind_id
    K.
      [
        Slot_switch; Irq_raised; Top_handler_run; Monitor_decision;
        Bottom_handler_done;
      ]

let attach ?config trace on_span =
  Hyp_trace.set_row_spill trace (row (create ?config on_span))
