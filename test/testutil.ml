(* Shared helpers for the test suites. *)

module Cycles = Rthv_engine.Cycles

let cycles : Cycles.t Alcotest.testable =
  Alcotest.testable Cycles.pp Int.equal

let check_cycles = Alcotest.check cycles

(* Approximate float equality with an absolute tolerance. *)
let close ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %g, got %g (eps %g)" msg expected actual eps

(* Relative closeness for statistical checks. *)
let close_rel ~rel msg expected actual =
  let bound = Float.abs expected *. rel in
  if Float.abs (expected -. actual) > bound then
    Alcotest.failf "%s: expected %g +/- %.0f%%, got %g" msg expected
      (100. *. rel) actual

let qtest ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

let us = Cycles.of_us

(* A span's timestamps follow its causal chain. *)
let monotone (sp : Rthv_core.Irq_fold.span) =
  sp.arrival <= sp.top_start
  && sp.top_start <= sp.top_end
  && sp.top_end <= sp.decision
  && sp.decision <= sp.bh_start
  && sp.bh_start <= sp.completion
