(* The integrator's design flow, end to end.

   Requirement: a CAN receive interrupt subscribed by partition "comms" must
   complete its bottom handler within 300 us, on a system whose other
   partitions run hard real-time task sets that must keep their deadlines.

   Flow:
     1. check that the CAN traffic's native minimum distance (2 ms between
        frames, from the bus configuration) is enough for the latency
        budget (Sensitivity gives the smallest workable d_min), then grant
        exactly the native distance — the loosest monitoring condition that
        matches the traffic, i.e. the smallest interference on everyone
        else;
     2. check every other partition's schedulability under the granted
        interference (Certificate, equations (2) + (14));
     3. simulate the full system on conforming worst-ish traffic and verify
        both the latency requirement and the certificate's budgets hold in
        execution;
     4. harden the design with the post-paper policy layers — re-express
        the schedule as a weighted slot plan and compose the monitor with a
        burst-capping token bucket — then prove via the Bound dispatcher
        that the eq.-(16) verdict survives, re-lint the new configuration,
        and re-simulate.

   Run with:  dune exec examples/design_flow.exe *)

module Cycles = Rthv_engine.Cycles
module Config = Rthv_core.Config
module Hyp_sim = Rthv_core.Hyp_sim
module Irq_record = Rthv_core.Irq_record
module Tdma = Rthv_core.Tdma
module AC = Rthv_analysis.Arrival_curve
module Cert = Rthv_analysis.Certificate
module DF = Rthv_analysis.Distance_fn
module GS = Rthv_analysis.Guest_sched
module IL = Rthv_analysis.Irq_latency
module Sensitivity = Rthv_analysis.Sensitivity
module Task = Rthv_rtos.Task
module Gen = Rthv_workload.Gen
module Platform = Rthv_hw.Platform

let budget_us = 300
let c_th_us = 5
let c_bh_us = 60
let traffic_d_min_us = 2_000  (* CAN bus: at most one relevant frame per 2ms *)

let slot_us = [ ("flight", 5_000); ("comms", 4_000); ("logging", 3_000) ]

let tasks_of = function
  | "flight" ->
      [
        Task.spec ~name:"loop" ~period_us:24_000 ~wcet_us:1_500 ~priority:0 ();
        Task.spec ~name:"guidance" ~period_us:48_000 ~wcet_us:2_500 ~priority:1 ();
      ]
  | "logging" -> [ Task.spec ~name:"flush" ~period_us:48_000 ~wcet_us:3_000 () ]
  | _ -> []

let () =
  let costs = IL.costs_of_platform Platform.arm926ejs_200mhz in
  let cycle_us = List.fold_left (fun a (_, s) -> a + s) 0 slot_us in
  let tdma = Tdma.of_us (Array.of_list (List.map snd slot_us)) in
  Format.printf "requirement: CAN bottom handler done within %dus \
                 (C_TH=%dus, C_BH=%dus, T_TDMA=%dus)@."
    budget_us c_th_us c_bh_us cycle_us;

  (* Step 1: does the traffic's native distance meet the budget?  Grant
     exactly that distance — looser would under-admit the traffic, tighter
     would inflict needless interference on the other partitions. *)
  let query =
    Sensitivity.make ~tdma:(Tdma.interference tdma ~partition:1) ~costs
      ~c_th:(Cycles.of_us c_th_us) ()
  in
  let floor_d_min =
    match
      Sensitivity.min_d_min_for_latency query ~c_bh:(Cycles.of_us c_bh_us)
        ~budget:(Cycles.of_us budget_us)
    with
    | Some d -> d
    | None -> failwith "no d_min meets the budget: reduce C_BH"
  in
  let d_min = Cycles.of_us traffic_d_min_us in
  if d_min < floor_d_min then failwith "CAN traffic too dense for the budget";
  Format.printf
    "step 1: latency needs d_min >= %a; traffic guarantees %a -> grant %a      (eq. 16 worst case %a)@."
    Cycles.pp floor_d_min Cycles.pp d_min Cycles.pp d_min Cycles.pp
    (Option.get
       (Sensitivity.interposed_latency query ~c_bh:(Cycles.of_us c_bh_us)
          ~d_min));

  (* Step 2: the independence certificate for all partitions. *)
  let c_bh_eff =
    IL.effective_bh costs
      {
        IL.name = "can_rx";
        arrival = AC.Sporadic { d_min };
        c_th = Cycles.of_us c_th_us;
        c_bh = Cycles.of_us c_bh_us;
      }
  in
  let cert =
    Cert.check ~cycle:(Cycles.of_us cycle_us) ~c_ctx:costs.IL.c_ctx
      ~partitions:
        (List.mapi
           (fun i (name, slot) ->
             {
               Cert.p_index = i;
               p_name = name;
               slot = Cycles.of_us slot;
               tasks = List.map GS.of_spec (tasks_of name);
             })
           slot_us)
      ~grants:
        [ { Cert.source_name = "can_rx"; monitor = DF.d_min d_min; c_bh_eff;
            subscriber = 1 } ]
  in
  Format.printf "step 2:@.%a" Cert.pp cert;
  if not cert.Cert.holds then exit 2;

  (* Step 3: simulate and verify. *)
  let partitions =
    List.map
      (fun (name, slot) ->
        Config.partition ~name ~slot_us:slot ~tasks:(tasks_of name) ())
      slot_us
  in
  let interarrivals =
    Gen.exponential_clamped ~seed:21 ~mean:d_min ~d_min ~count:4_000
  in
  let config =
    Config.make ~partitions
      ~sources:
        [
          Config.source ~name:"can_rx" ~line:0 ~subscriber:1 ~c_th_us
            ~c_bh_us ~interarrivals
            ~shaping:(Config.Fixed_monitor (DF.d_min d_min))
            ();
        ]
      ()
  in
  let sim = Hyp_sim.create config in
  Hyp_sim.run sim;
  let worst =
    List.fold_left
      (fun acc r -> Cycles.max acc (Irq_record.latency r))
      0 (Hyp_sim.records sim)
  in
  let stats = Hyp_sim.stats sim in
  Format.printf
    "step 3: simulated %d IRQs — worst latency %a (budget %dus): %s@."
    stats.Hyp_sim.completed_irqs Cycles.pp worst budget_us
    (if worst <= Cycles.of_us budget_us then "REQUIREMENT MET" else "MISSED");
  List.iteri
    (fun i (name, _) ->
      let measured = stats.Hyp_sim.stolen_slot_max.(i) in
      let verdict = List.nth cert.Cert.verdicts i in
      Format.printf
        "        %-8s interference measured %a, certified budget %a %s@."
        name Cycles.pp measured Cycles.pp verdict.Cert.interference_budget
        (if measured <= verdict.Cert.interference_budget then "(ok)"
         else "(VIOLATED)"))
    slot_us;
  if worst > Cycles.of_us budget_us then exit 2;

  (* Step 4: the same requirement under the post-paper policy layers.  The
     schedule becomes a weighted slot plan (5:4:3 over the same 12 ms
     cycle — byte-identical slots, but now a first-class plan), and the
     grant is hardened to a composite monitor-AND-bucket whose bucket
     (capacity 1, refill d_min) is provably vacuous against the condition:
     bursts the condition would never admit are capped twice, yet the
     eq.-(16) per-instance bound is preserved. *)
  let shaping =
    Config.Monitor_and_bucket
      { fn = DF.d_min d_min; capacity = 1; refill = d_min }
  in
  let hardened =
    Config.make ~partitions
      ~plan:
        (Config.Weighted_plan
           { cycle = Cycles.of_us cycle_us; weights = [| 5; 4; 3 |] })
      ~sources:
        [
          Config.source ~name:"can_rx" ~line:0 ~subscriber:1 ~c_th_us
            ~c_bh_us ~interarrivals ~shaping ();
        ]
      ()
  in
  (* The analysis-side descriptor of the composite, through the same Bound
     dispatch the linter and the headroom gate use: the bucket must be
     vacuous, or interposed completions fall back to the baseline bound. *)
  let plan_cycle = Rthv_core.Slot_plan.cycle_length (Config.slot_plan hardened) in
  let policy = Rthv_check.Absint.bound_policy ~cycle:plan_cycle shaping in
  (match Rthv_analysis.Bound.per_instance_condition policy with
  | Some _ ->
      Format.printf
        "step 4: composite policy %a keeps the eq.-(16) per-instance bound@."
        Rthv_analysis.Bound.pp policy
  | None ->
      Format.printf
        "step 4: composite bucket binds — eq. (16) lost, redesign@.";
      exit 2);
  (* Re-lint: the new configuration must stay free of errors (the vacuous
     bucket is reported as an info-level RTHV014). *)
  let diags = Rthv_check.Lint.analyze hardened in
  List.iter
    (fun d -> Format.printf "        %a@." Rthv_check.Diagnostic.pp d)
    diags;
  if Rthv_check.Diagnostic.errors diags <> [] then exit 2;
  (* Re-simulate: same verdict as step 3, now under plan + composite. *)
  let sim4 = Hyp_sim.create hardened in
  Hyp_sim.run sim4;
  let worst4 =
    List.fold_left
      (fun acc r -> Cycles.max acc (Irq_record.latency r))
      0 (Hyp_sim.records sim4)
  in
  let stats4 = Hyp_sim.stats sim4 in
  Format.printf
    "        simulated %d IRQs under the hardened design — worst latency %a \
     (budget %dus): %s@."
    stats4.Hyp_sim.completed_irqs Cycles.pp worst4 budget_us
    (if worst4 <= Cycles.of_us budget_us then "REQUIREMENT MET" else "MISSED");
  Format.printf
    "        %d interposed of %d completed; admission checks %d@."
    stats4.Hyp_sim.interposed stats4.Hyp_sim.completed_irqs
    stats4.Hyp_sim.monitor_checks;
  if worst4 > Cycles.of_us budget_us then exit 2
