module Cycles = Rthv_engine.Cycles

type t = {
  bucket_capacity : int;
  refill_period : Cycles.t;
  mutable tokens : int;
  mutable last_refill : Cycles.t;  (* time of the last credited refill *)
  mutable checked : int;
  mutable admitted : int;
}

let create ~capacity ~refill =
  if capacity < 1 then invalid_arg "Throttle.create: capacity must be >= 1";
  if refill < 1 then invalid_arg "Throttle.create: refill must be >= 1";
  {
    bucket_capacity = capacity;
    refill_period = refill;
    tokens = capacity;
    last_refill = 0;
    checked = 0;
    admitted = 0;
  }

let capacity t = t.bucket_capacity
let refill t = t.refill_period

let update t ts =
  if ts < t.last_refill then
    invalid_arg "Throttle: time must be non-decreasing";
  if t.tokens < t.bucket_capacity then begin
    let elapsed = Cycles.( - ) ts t.last_refill in
    let earned = elapsed / t.refill_period in
    let granted = Stdlib.min earned (t.bucket_capacity - t.tokens) in
    t.tokens <- t.tokens + granted;
    if t.tokens = t.bucket_capacity then
      (* A full bucket stops accruing; restart the meter from now. *)
      t.last_refill <- ts
    else
      t.last_refill <-
        Cycles.( + ) t.last_refill (Cycles.( * ) t.refill_period earned)
  end
  else t.last_refill <- ts

let check t ts =
  t.checked <- t.checked + 1;
  update t ts;
  t.tokens >= 1

let admit t ts =
  update t ts;
  if t.tokens < 1 then invalid_arg "Throttle.admit: no token available";
  t.tokens <- t.tokens - 1;
  t.admitted <- t.admitted + 1

let earliest t ts =
  update t ts;
  if t.tokens >= 1 then ts else Cycles.add_sat t.last_refill t.refill_period

let level t = t.tokens
let checked_count t = t.checked
let admitted_count t = t.admitted
