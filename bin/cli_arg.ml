(* Numeric flag converters shared by the command-line tools.  A value out
   of range is rejected while the command line is parsed, so the tool
   exits 124 with cmdliner's usage hint, as it does for a malformed value,
   instead of failing later with an uncaught exception or running on a
   value that makes no sense. *)

open Cmdliner

let invalid s expected =
  Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))

let count =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < 1 -> invalid s "an integer >= 1"
    | r -> r
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* Every duration becomes cycles through [Cycles.of_us]. *)
let max_us = max_int / Rthv_engine.Cycles.cycles_per_us

let us_at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo -> invalid s (Printf.sprintf "a duration >= %d us" lo)
    | Ok n when n > max_us ->
        invalid s
          (Printf.sprintf "at most %d us (its cycle count overflows)" max_us)
    | r -> r
  in
  Arg.conv ~docv:"US" (parse, Format.pp_print_int)

let us = us_at_least 1
let us_or_zero = us_at_least 0

let fraction =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok u when not (u > 0. && u <= 1.) -> invalid s "a fraction in (0, 1]"
    | r -> r
  in
  Arg.conv ~docv:"FRACTION" (parse, Format.pp_print_float)
