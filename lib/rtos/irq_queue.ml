module Cycles = Rthv_engine.Cycles

type item = {
  mutable irq : int;
  mutable line : int;
  mutable arrival : Cycles.t;
  mutable total : Cycles.t;
  mutable remaining : Cycles.t;
}

(* Ring buffer of items (power-of-two capacity): pushes allocate nothing
   beyond the item itself, unlike the former [Stdlib.Queue] cell per
   event. *)
type t = {
  mutable ring : item array;
  mutable head : int;
  mutable len : int;
  mutable high_water : int;
}

(* Filler for empty ring slots; never returned. *)
let dummy_item = { irq = -1; line = 0; arrival = 0; total = 1; remaining = 1 }

let create () = { ring = Array.make 16 dummy_item; head = 0; len = 0; high_water = 0 }

let make_item ~irq ~line ~arrival ~work =
  if work <= 0 then invalid_arg "Irq_queue.make_item: work must be positive";
  { irq; line; arrival; total = work; remaining = work }

let reset_item item ~irq ~line ~arrival ~work =
  if work <= 0 then invalid_arg "Irq_queue.reset_item: work must be positive";
  item.irq <- irq;
  item.line <- line;
  item.arrival <- arrival;
  item.total <- work;
  item.remaining <- work

let grow t =
  let cap = Array.length t.ring in
  let ring' = Array.make (cap * 2) dummy_item in
  for i = 0 to t.len - 1 do
    ring'.(i) <- t.ring.((t.head + i) land (cap - 1))
  done;
  t.ring <- ring';
  t.head <- 0

let push t item =
  if t.len = Array.length t.ring then grow t;
  t.ring.((t.head + t.len) land (Array.length t.ring - 1)) <- item;
  t.len <- t.len + 1;
  if t.len > t.high_water then t.high_water <- t.len

let is_empty t = t.len = 0
let length t = t.len
let head t = if t.len = 0 then raise Queue.Empty else t.ring.(t.head)
let peek t = if t.len = 0 then None else Some t.ring.(t.head)

let drop_head t =
  if t.len = 0 then invalid_arg "Irq_queue.drop_head: empty queue"
  else begin
    let item = t.ring.(t.head) in
    if item.remaining > 0 then
      invalid_arg "Irq_queue.drop_head: head still has remaining work"
    else begin
      (* Release the slot so a drained ring retains no completed items. *)
      t.ring.(t.head) <- dummy_item;
      t.head <- (t.head + 1) land (Array.length t.ring - 1);
      t.len <- t.len - 1;
      item
    end
  end

let pending_work t =
  let acc = ref 0 in
  for i = 0 to t.len - 1 do
    acc :=
      Cycles.( + ) !acc
        t.ring.((t.head + i) land (Array.length t.ring - 1)).remaining
  done;
  !acc

let max_observed_length t = t.high_water

let to_list t =
  List.init t.len (fun i -> t.ring.((t.head + i) land (Array.length t.ring - 1)))
