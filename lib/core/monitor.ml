module Cycles = Rthv_engine.Cycles
module Distance_fn = Rthv_analysis.Distance_fn

type phase = Learning of int | Running

type mode =
  | Fixed
  | Self_learning of {
      learner : Delta_learner.t;
      learn_events : int;
      bound : Distance_fn.t option;
    }

(* Sentinel marking a ring cell that holds no admitted event yet.
   Timestamps are non-negative cycle counts, so [min_int] is unambiguous,
   and an unboxed [int array] needs no per-cell [option]. *)
let no_event = Stdlib.min_int

(* The admitted history is a ring buffer: [history.(head)] is the most
   recent admitted timestamp and the (i+1)-th last sits at
   [(head - i + l) mod l].  Admission is O(1) (advance [head], overwrite the
   oldest cell) instead of the former O(l) shift of an option array, and
   [entries] caches the condition's entry array so the per-IRQ check never
   calls [Distance_fn.entries] (which copies). *)
type t = {
  mode : mode;
  mutable fn : Distance_fn.t option;  (* None while learning *)
  mutable entries : Cycles.t array;  (* entries of [fn]; [||] while learning *)
  history : Cycles.t array;
  mutable head : int;
  mutable admitted : int;
  mutable checked : int;
}

let fixed fn =
  {
    mode = Fixed;
    fn = Some fn;
    entries = Distance_fn.entries fn;
    history = Array.make (Distance_fn.length fn) no_event;
    head = 0;
    admitted = 0;
    checked = 0;
  }

let d_min d = fixed (Distance_fn.d_min d)

let self_learning ~l ~learn_events ?bound () =
  if l <= 0 then invalid_arg "Monitor.self_learning: l must be positive";
  if learn_events < 0 then
    invalid_arg "Monitor.self_learning: negative learn_events";
  (match bound with
  | Some b when Distance_fn.length b <> l ->
      invalid_arg "Monitor.self_learning: bound length mismatch"
  | Some _ | None -> ());
  {
    mode = Self_learning { learner = Delta_learner.create ~l; learn_events; bound };
    fn = None;
    entries = [||];
    history = Array.make l no_event;
    head = 0;
    admitted = 0;
    checked = 0;
  }

let phase t =
  match (t.mode, t.fn) with
  | _, Some _ -> Running
  | Self_learning { learner; learn_events; _ }, None ->
      Learning (Stdlib.max 0 (learn_events - Delta_learner.observed learner))
  | Fixed, None -> assert false

let finish_learning t =
  match t.mode with
  | Fixed -> ()
  | Self_learning { learner; bound; _ } ->
      let fn =
        match bound with
        | None -> Delta_learner.learned learner
        | Some bound -> Delta_learner.learned_bounded learner ~bound
      in
      t.fn <- Some fn;
      t.entries <- Distance_fn.entries fn

let note_arrival t timestamp =
  match (t.mode, t.fn) with
  | Fixed, _ | Self_learning _, Some _ -> ()
  | Self_learning { learner; learn_events; _ }, None ->
      Delta_learner.observe learner timestamp;
      if Delta_learner.observed learner >= learn_events then finish_learning t

(* Top-level recursion (not an inner closure) keeps [conforms] allocation
   free on the per-IRQ path. *)
let rec conforms_from history head entries l timestamp i =
  i >= l
  ||
  let previous = history.((head - i + l) mod l) in
  (previous = no_event
  || Cycles.( - ) timestamp previous >= Array.unsafe_get entries i)
  && conforms_from history head entries l timestamp (i + 1)

let conforms t timestamp =
  let l = Array.length t.entries in
  (* [l = 0] iff the condition does not exist yet (learning phase): no
     interposition is admitted. *)
  l > 0 && conforms_from t.history t.head t.entries l timestamp 0

(* [conforms] solved for the time: the latest of the remembered admissions,
   each plus its entry. *)
let earliest t timestamp =
  let l = Array.length t.entries in
  let e = ref (if l = 0 then max_int else timestamp) in
  for i = 0 to l - 1 do
    let previous = t.history.((t.head - i + l) mod l) in
    if previous <> no_event then
      e := Cycles.max !e (Cycles.add_sat previous t.entries.(i))
  done;
  !e

let check t timestamp =
  t.checked <- t.checked + 1;
  conforms t timestamp

let admit t timestamp =
  if not (conforms t timestamp) then
    invalid_arg "Monitor.admit: activation violates the monitoring condition";
  let l = Array.length t.history in
  let head = t.head + 1 in
  let head = if head = l then 0 else head in
  t.head <- head;
  t.history.(head) <- timestamp;
  t.admitted <- t.admitted + 1

let condition t = t.fn
let admitted_count t = t.admitted
let checked_count t = t.checked
