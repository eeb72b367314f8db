module Cycles = Rthv_engine.Cycles

type t = {
  slots : Cycles.t array;
  starts : Cycles.t array;  (* start offset of each slot within the cycle *)
  cycle : Cycles.t;
}

let make slots =
  let n = Array.length slots in
  if n = 0 then invalid_arg "Tdma.make: no partitions";
  Array.iter
    (fun s -> if s <= 0 then invalid_arg "Tdma.make: non-positive slot")
    slots;
  let starts = Array.make n 0 in
  let total = ref 0 in
  for i = 0 to n - 1 do
    starts.(i) <- !total;
    total := Cycles.( + ) !total slots.(i)
  done;
  { slots; starts; cycle = !total }

let of_us slots_us = make (Array.map Cycles.of_us slots_us)
let partitions t = Array.length t.slots
let cycle_length t = t.cycle
let slot_length t i = t.slots.(i)

let position_in_cycle t time =
  if time < 0 then invalid_arg "Tdma: negative time";
  time mod t.cycle

(* Index of the slot containing cycle offset [pos] (< cycle).  A top-level
   loop rather than a local closure, so every lookup below allocates
   nothing. *)
let rec slot_index t pos i =
  (* pos < cycle, so the last slot always catches. *)
  if i = Array.length t.slots - 1 || pos < Cycles.( + ) t.starts.(i) t.slots.(i)
  then i
  else slot_index t pos (i + 1)

let owner_at t time = slot_index t (position_in_cycle t time) 0

(* End of slot [owner], which contains [time] at cycle offset [pos]. *)
let end_of_slot t time ~pos owner =
  Cycles.( + ) (Cycles.( - ) time pos)
    (Cycles.( + ) t.starts.(owner) t.slots.(owner))

type slot = { mutable owner : int; mutable slot_end : Cycles.t }

let slot () = { owner = 0; slot_end = 0 }

let locate t time s =
  let pos = position_in_cycle t time in
  let owner = slot_index t pos 0 in
  s.owner <- owner;
  s.slot_end <- end_of_slot t time ~pos owner

let slot_bounds_at t time =
  let pos = position_in_cycle t time in
  let owner = slot_index t pos 0 in
  let slot_start = Cycles.( + ) (Cycles.( - ) time pos) t.starts.(owner) in
  (owner, slot_start, Cycles.( + ) slot_start t.slots.(owner))

let next_boundary t time =
  let pos = position_in_cycle t time in
  end_of_slot t time ~pos (slot_index t pos 0)

let next_slot_start t ~partition ~after =
  if partition < 0 || partition >= Array.length t.slots then
    invalid_arg "Tdma.next_slot_start: bad partition";
  let cycle_base = Cycles.( - ) after (position_in_cycle t after) in
  let candidate = Cycles.( + ) cycle_base t.starts.(partition) in
  if candidate >= after then candidate else Cycles.( + ) candidate t.cycle

let interference t ~partition =
  Rthv_analysis.Tdma_interference.make ~cycle:t.cycle
    ~slot:(slot_length t partition)

let pp ppf t =
  Format.fprintf ppf "TDMA[cycle=%a:" Cycles.pp t.cycle;
  Array.iteri
    (fun i s ->
      if i > 0 then Format.fprintf ppf ",";
      Format.fprintf ppf " p%d=%a" i Cycles.pp s)
    t.slots;
  Format.fprintf ppf "]"
