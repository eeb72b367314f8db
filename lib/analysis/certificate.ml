module Cycles = Rthv_engine.Cycles

type grant = {
  source_name : string;
  monitor : Distance_fn.t;
  c_bh_eff : Cycles.t;
  subscriber : int;
}

type partition_input = {
  p_index : int;
  p_name : string;
  slot : Cycles.t;
  tasks : Guest_sched.task list;
}

type verdict = {
  v_index : int;
  v_name : string;
  interference_budget : Cycles.t;
  utilisation_loss : float;
  task_results : (Guest_sched.task * (Busy_window.result, string) result) list;
  schedulable : bool;
}

type t = {
  cycle : Cycles.t;
  c_ctx : Cycles.t;
  grants : grant list;
  verdicts : verdict list;
  holds : bool;
}

let analyse_curves ~cycle ~c_ctx ~partitions ~interference ~carry_in
    ~utilisation_loss =
  List.map
    (fun p ->
      let slot_eff = Cycles.( - ) p.slot c_ctx in
      let budget = Cycles.add_sat (interference p.slot) carry_in in
      let unschedulable why =
        {
          v_index = p.p_index;
          v_name = p.p_name;
          interference_budget = budget;
          utilisation_loss;
          task_results = List.map (fun t -> (t, Error why)) p.tasks;
          schedulable = false;
        }
      in
      if budget = max_int then unschedulable "interference budget overflows"
      else if slot_eff <= 0 then unschedulable "slot shorter than C_ctx"
      else begin
        let tdma = Tdma_interference.make ~cycle ~slot:slot_eff in
        let task_results =
          Guest_sched.analyse ~tdma ~interference ~blocking:carry_in p.tasks
        in
        let schedulable =
          List.for_all
            (fun ((task : Guest_sched.task), result) ->
              match result with
              | Ok r -> r.Busy_window.response_time <= task.Guest_sched.period
              | Error _ -> false)
            task_results
        in
        {
          v_index = p.p_index;
          v_name = p.p_name;
          interference_budget = budget;
          utilisation_loss;
          task_results;
          schedulable;
        }
      end)
    partitions

let check ~cycle ~c_ctx ~partitions ~grants =
  let curves =
    List.map
      (fun grant ->
        Independence.interposed_bound ~monitor:grant.monitor
          ~c_bh_eff:grant.c_bh_eff)
      grants
  in
  let interference = Independence.sum curves in
  let carry_in =
    List.fold_left (fun acc g -> Cycles.max acc g.c_bh_eff) 0 grants
  in
  let utilisation_loss =
    List.fold_left
      (fun acc g ->
        acc
        +. Independence.utilisation_loss ~monitor:g.monitor
             ~c_bh_eff:g.c_bh_eff)
      0. grants
  in
  let verdicts =
    analyse_curves ~cycle ~c_ctx ~partitions ~interference ~carry_in
      ~utilisation_loss
  in
  {
    cycle;
    c_ctx;
    grants;
    verdicts;
    holds = List.for_all (fun v -> v.schedulable) verdicts;
  }

let pp_budget ppf budget =
  if budget = max_int then Format.fprintf ppf "b_Ip past max_int cycles"
  else Format.fprintf ppf "b_Ip = %a per slot" Cycles.pp budget

let pp ppf t =
  Format.fprintf ppf
    "sufficient temporal independence certificate (T_TDMA = %a)@." Cycles.pp
    t.cycle;
  Format.fprintf ppf "grants:@.";
  List.iter
    (fun g ->
      Format.fprintf ppf "  %-12s monitor %a, C'_BH = %a (subscriber p%d)@."
        g.source_name Distance_fn.pp g.monitor Cycles.pp g.c_bh_eff
        g.subscriber)
    t.grants;
  List.iter
    (fun v ->
      Format.fprintf ppf "partition %d (%s): %a, %.2f%% long-term — %s@."
        v.v_index v.v_name pp_budget v.interference_budget
        (100. *. v.utilisation_loss)
        (if v.schedulable then "SCHEDULABLE" else "NOT SCHEDULABLE");
      List.iter
        (fun ((task : Guest_sched.task), result) ->
          match result with
          | Ok r ->
              Format.fprintf ppf "    %-12s R = %a (T = %a)%s@."
                task.Guest_sched.name Cycles.pp r.Busy_window.response_time
                Cycles.pp task.Guest_sched.period
                (if r.Busy_window.response_time <= task.Guest_sched.period
                 then ""
                 else "  ** DEADLINE MISS **")
          | Error msg ->
              Format.fprintf ppf "    %-12s %s@." task.Guest_sched.name msg)
        v.task_results)
    t.verdicts;
  Format.fprintf ppf "certificate %s@."
    (if t.holds then "HOLDS" else "DOES NOT HOLD")
