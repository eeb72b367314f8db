(* The per-IRQ fold: typed trace events (or store rows) in, one span per
   completed IRQ out.  See irq_fold.mli for the classification rule. *)

module Cycles = Rthv_engine.Cycles

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

(* In-flight IRQs hold one row of [width] ints at [irq land (capacity - 1)]
   (the Sim_state scheme); a free row has [f_irq] = -1.  [f_verdict] is the
   store's verdict code (0 admitted, 1 denied, 2 fallback), -1 for none. *)
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
  { on_span; c_th; names; owner = 0; rows = Array.make (64 * width) (-1) }

let source_name t line =
  match Hashtbl.find t.names line with
  | name -> name
  | exception Not_found ->
      let name = Printf.sprintf "line%d" line in
      Hashtbl.add t.names line name;
      name

let row_of t irq = (irq land ((Array.length t.rows / width) - 1)) * width

(* Double the table; ids that differ modulo the capacity still differ
   modulo twice the capacity, so re-placing the live rows cannot collide. *)
let grow t =
  let old = t.rows in
  t.rows <- Array.make (2 * Array.length old) (-1);
  for r = 0 to (Array.length old / width) - 1 do
    let irq = old.(r * width) in
    if irq >= 0 then Array.blit old (r * width) t.rows (row_of t irq) width
  done

(* Negative ids cannot come from the simulator; a corrupt store's are
   ignored rather than mistaken for free rows. *)
let rec raised t ~time ~irq ~line =
  if irq >= 0 then begin
    let r = row_of t irq in
    let held = t.rows.(r + f_irq) in
    if held >= 0 && held <> irq then begin
      grow t;
      raised t ~time ~irq ~line
    end
    else begin
      Array.fill t.rows r width (-1);
      t.rows.(r + f_irq) <- irq;
      t.rows.(r + f_line) <- line;
      t.rows.(r + f_arrival) <- time;
      t.rows.(r + f_top_end) <- time
    end
  end

(* Row of a live IRQ, or -1 when its raise was not folded. *)
let live t irq =
  if irq < 0 then -1
  else
    let r = row_of t irq in
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

(* The classifier.  The options are constants, so nothing is allocated. *)
let classify ~verdict ~owner ~partition =
  match verdict with
  | 0 -> Some Irq_record.Interposed
  | 1 -> Some Irq_record.Delayed
  | 2 -> Some Irq_record.Direct
  | _ ->
      if owner < 0 then None
      else if owner = partition then Some Irq_record.Direct
      else Some Irq_record.Delayed

let completed t ~time ~irq ~partition =
  let r = live t irq in
  if r >= 0 then begin
    let row = t.rows in
    row.(r + f_irq) <- -1;
    let line = row.(r + f_line) and top_end = row.(r + f_top_end) in
    let owner = row.(r + f_owner) and decision = row.(r + f_decision) in
    let bh_start = row.(r + f_bh_start) in
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
        cls = classify ~verdict:row.(r + f_verdict) ~owner ~partition;
        arrival = row.(r + f_arrival);
        top_start = Cycles.( - ) top_end c_th;
        top_end;
        decision = (if decision >= 0 then decision else top_end);
        bh_start = (if bh_start >= 0 then bh_start else time);
        completion = time;
      }
  end

let event t ~time = function
  | Hyp_trace.Slot_switch { to_partition; _ } -> t.owner <- to_partition
  | Hyp_trace.Irq_raised { irq; line } -> raised t ~time ~irq ~line
  | Hyp_trace.Top_handler_run { irq; _ } -> top_handler t ~time ~irq
  | Hyp_trace.Monitor_decision { irq; verdict; _ } ->
      decided t ~time ~irq (Trace_store.verdict_code verdict)
  | Hyp_trace.Bottom_handler_start { irq; _ } -> bh_started t ~time ~irq
  | Hyp_trace.Bottom_handler_done { irq; partition } ->
      completed t ~time ~irq ~partition
  | Hyp_trace.Boundary_deferred _ | Hyp_trace.Interposition_start _
  | Hyp_trace.Interposition_end _ | Hyp_trace.Interposition_crossed_boundary _
  | Hyp_trace.Irq_coalesced _ ->
      ()

(* Trace_store's kind ids and columns (Trace_store.encode_event). *)
let row t ~time ~kind ~a ~b ~c:_ ~d =
  match kind with
  | 0 -> t.owner <- b
  | 2 -> raised t ~time ~irq:a ~line:b
  | 3 -> top_handler t ~time ~irq:a
  | 4 -> decided t ~time ~irq:a d
  | 8 -> bh_started t ~time ~irq:a
  | 9 -> completed t ~time ~irq:a ~partition:b
  | _ -> ()

let latency_kinds = [ 0; 2; 3; 4; 9 ]

let attach ?config trace on_span =
  Hyp_trace.set_spill trace (event (create ?config on_span))
