(* rthv_analyze: worst-case IRQ latency and interference bounds from the
   paper's analysis (Sections 4-5), without running a simulation.

   Example:
     rthv_analyze --cycle-us 14000 --slot-us 6000 --cbh-us 50 --dmin-us 1544 *)

module Cycles = Rthv_engine.Cycles
module AC = Rthv_analysis.Arrival_curve
module BW = Rthv_analysis.Busy_window
module DF = Rthv_analysis.Distance_fn
module IL = Rthv_analysis.Irq_latency
module TI = Rthv_analysis.Tdma_interference
module Independence = Rthv_analysis.Independence
module Platform = Rthv_hw.Platform

let main cycle_us slot_us c_th_us c_bh_us d_min_us max_util ideal =
  if slot_us <= 0 || cycle_us < slot_us then begin
    Format.eprintf "need 0 < slot <= cycle@.";
    1
  end
  else begin
    let platform = if ideal then Platform.ideal else Platform.arm926ejs_200mhz in
    let costs = IL.costs_of_platform platform in
    let d_min = Cycles.of_us d_min_us in
    let self =
      {
        IL.name = "irq";
        arrival = AC.Sporadic { d_min };
        c_th = Cycles.of_us c_th_us;
        c_bh = Cycles.of_us c_bh_us;
      }
    in
    let tdma =
      TI.make ~cycle:(Cycles.of_us cycle_us)
        ~slot:(Stdlib.max 1 (Cycles.of_us slot_us - costs.IL.c_ctx))
    in
    let c_bh_eff = IL.effective_bh costs self in
    let c_th_eff = IL.effective_th costs self in
    Format.printf "platform: %a@." Platform.pp platform;
    Format.printf
      "effective WCETs (eq. 13/15): C'_BH = %a, C'_TH = %a@." Cycles.pp
      c_bh_eff Cycles.pp c_th_eff;
    Format.printf "TDMA-dominated term (T_TDMA - T_i): %a@." Cycles.pp
      (IL.baseline_dominant_term ~tdma);
    let report label result =
      match result with
      | Ok r ->
          Format.printf "%-38s R = %a  (busy period: %d activations)@." label
            Cycles.pp r.BW.response_time r.BW.q_max
      | Error msg -> Format.printf "%-38s %s@." label msg
    in
    report "baseline (eq. 11-12):"
      (IL.baseline ~tdma ~self ~interferers:[] ());
    report "baseline + monitoring (case 2):"
      (IL.baseline ~tdma ~self ~interferers:[] ~monitoring:costs ());
    report "interposed (eq. 16):"
      (IL.interposed ~costs ~self ~interferers:[] ());
    let monitor = DF.d_min d_min in
    Format.printf
      "interference on others (eq. 14): %.2f%% long-term; max per %dus slot \
       = %a@."
      (100. *. Independence.utilisation_loss ~monitor ~c_bh_eff)
      slot_us Cycles.pp
      (Independence.max_slot_loss ~monitor ~c_bh_eff
         ~slot:(Cycles.of_us slot_us));
    (match max_util with
    | None -> ()
    | Some u ->
        let required = Independence.required_d_min ~c_bh_eff ~max_utilisation:u in
        Format.printf
          "d_min required for <= %.1f%% interference: %a@." (100. *. u)
          Cycles.pp required);
    0
  end

open Cmdliner

let cycle_us =
  Arg.(
    value & opt Cli_arg.us 14_000
    & info [ "cycle-us" ] ~docv:"US" ~doc:"TDMA cycle length T_TDMA.")

let slot_us =
  Arg.(
    value & opt Cli_arg.us 6_000
    & info [ "slot-us" ] ~docv:"US" ~doc:"Subscriber partition slot T_i.")

let c_th_us =
  Arg.(
    value & opt Cli_arg.us 5
    & info [ "cth-us" ] ~docv:"US" ~doc:"Top handler WCET.")

let c_bh_us =
  Arg.(
    value & opt Cli_arg.us 50
    & info [ "cbh-us" ] ~docv:"US" ~doc:"Bottom handler WCET.")

let d_min_us =
  Arg.(
    value & opt Cli_arg.us 1_544
    & info [ "dmin-us" ] ~docv:"US"
        ~doc:"Minimum inter-arrival distance (monitoring condition).")

let max_util =
  Arg.(
    value
    & opt (some Cli_arg.fraction) None
    & info [ "max-util" ] ~docv:"FRACTION"
        ~doc:
          "Also compute the d_min needed to keep long-term interference at \
           or below this fraction.")

let ideal =
  Arg.(
    value & flag
    & info [ "ideal" ]
        ~doc:"Use the zero-overhead platform instead of the ARM926ej-s.")

let cmd =
  let doc =
    "worst-case IRQ latency and interference bounds for a TDMA hypervisor \
     with interposed interrupt handling (Beckert et al., DAC 2014)"
  in
  Cmd.v
    (Cmd.info "rthv_analyze" ~doc)
    Term.(
      const main $ cycle_us $ slot_us $ c_th_us $ c_bh_us $ d_min_us
      $ max_util $ ideal)

let () = exit (Cmd.eval' cmd)
