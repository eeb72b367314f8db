(* Quickstart: build a two-partition hypervisor system, fire IRQs at it, and
   compare interrupt latencies with and without monitoring-based interposed
   handling.  The configuration itself lives in Rthv_check.Scenarios so the
   linter, the tests and this example stay in sync.

   Run with:  dune exec examples/quickstart.exe *)

module Cycles = Rthv_engine.Cycles
module Hyp_sim = Rthv_core.Hyp_sim
module Irq_record = Rthv_core.Irq_record
module Distance_fn = Rthv_analysis.Distance_fn
module Scenarios = Rthv_check.Scenarios
module Summary = Rthv_stats.Summary

let () =
  (* 1. The shared quickstart scenario: two 5 ms partitions; "io" subscribes
     a NIC-like source with exponential interarrivals (mean 2 ms). *)
  let d_min = Scenarios.quickstart_d_min in

  let run config =
    let sim = Hyp_sim.create config in
    Hyp_sim.run sim;
    let latencies =
      List.map Irq_record.latency_us (Hyp_sim.records sim)
    in
    (Summary.of_list latencies, Hyp_sim.stats sim)
  in

  (* 2. Baseline: the original top handler — bottom handlers only run in the
     subscriber's own slot. *)
  let baseline, baseline_stats = run (Scenarios.quickstart ~monitored:false ()) in

  (* 3. Monitored: bottom handlers may run in foreign slots, shaped by a
     d_min monitor so other partitions see bounded interference. *)
  let monitored, monitored_stats = run (Scenarios.quickstart ()) in

  Format.printf "baseline : avg %7.1fus  p95 %7.1fus  worst %7.1fus@."
    baseline.Summary.mean baseline.Summary.p95 baseline.Summary.max;
  Format.printf "monitored: avg %7.1fus  p95 %7.1fus  worst %7.1fus@."
    monitored.Summary.mean monitored.Summary.p95 monitored.Summary.max;
  Format.printf "IRQ handling: baseline %d direct / %d delayed;@."
    baseline_stats.Hyp_sim.direct baseline_stats.Hyp_sim.delayed;
  Format.printf "              monitored %d direct / %d interposed / %d delayed@."
    monitored_stats.Hyp_sim.direct monitored_stats.Hyp_sim.interposed
    monitored_stats.Hyp_sim.delayed;
  Format.printf "average improvement: %.1fx@."
    (baseline.Summary.mean /. monitored.Summary.mean);

  (* 4. The price: bounded interference on the "control" partition.  The
     hypervisor enforces it; equation (14) predicts it. *)
  let c_bh_eff =
    Rthv_check.Absint.c_bh_eff ~platform:Rthv_hw.Platform.arm926ejs_200mhz
      ~c_bh:(Cycles.of_us 40)
  in
  let bound =
    Rthv_analysis.Independence.max_slot_loss ~monitor:(Distance_fn.d_min d_min)
      ~c_bh_eff ~slot:(Cycles.of_us 5_000)
  in
  Format.printf
    "interference on 'control': measured max %.1fus per slot, bound %.1fus@."
    (Cycles.to_us monitored_stats.Hyp_sim.stolen_slot_max.(0))
    (Cycles.to_us bound)
