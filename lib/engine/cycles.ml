type t = int

let zero = 0
let cycles_per_us = 200
let of_us n = n * cycles_per_us

let of_ms n = n * 1000 * cycles_per_us
let of_instr n = n
let to_us t = float_of_int t /. float_of_int cycles_per_us
let to_us_int t = t / cycles_per_us
(* Monomorphic (and eta-expanded) so every call compiles to the int
   primitive — the [Stdlib] aliases would go through the polymorphic
   runtime compare / a closure application on this hot path. *)
let ( + ) (a : t) (b : t) : t = Stdlib.( + ) a b
let ( - ) (a : t) (b : t) : t = Stdlib.( - ) a b
let ( * ) (a : t) (n : int) : t = Stdlib.( * ) a n
let min (a : t) (b : t) : t = if Stdlib.( <= ) a b then a else b
let max (a : t) (b : t) : t = if Stdlib.( >= ) a b then a else b
let compare (a : t) (b : t) = Int.compare a b

let add_sat (a : t) (b : t) : t =
  let s = a + b in
  if Stdlib.( > ) b 0 && Stdlib.( < ) s a then max_int else s

(* Both factors below 2^31 cannot overflow: the division that tests the
   general case stays off the busy-window and eq.-(14) inner loops. *)
let mul_sat (a : t) (n : int) : t =
  if (a lor n) lsr 31 = 0 then a * n
  else if Stdlib.( > ) a 0 && Stdlib.( > ) n 0 && Stdlib.( > ) a (max_int / n)
  then max_int
  else a * n

let pp ppf t = Format.fprintf ppf "%.2fus" (to_us t)
