module Cycles = Rthv_engine.Cycles
module Platform = Rthv_hw.Platform
module Config = Rthv_core.Config
module Task = Rthv_rtos.Task
module DF = Rthv_analysis.Distance_fn
module Independence = Rthv_analysis.Independence
module Certificate = Rthv_analysis.Certificate
module Bound = Rthv_analysis.Bound
module GS = Rthv_analysis.Guest_sched
module D = Diagnostic

type ctx = {
  config : Config.t;
  cycle : Cycles.t;
  c_ctx : Cycles.t;
  slots : Cycles.t array;
      (* effective per-partition slot lengths — [Config.effective_slots], so
         weighted plans are linted against the schedule actually run *)
  ai : Absint.t;
      (* the interval analysis: closed-form rules read its facts, the
         whole-config rules (RTHV016..020) exist because of it *)
}

let source_loc (s : Config.source) = Printf.sprintf "source %s" s.Config.name
let partition_loc (p : Config.partition) =
  Printf.sprintf "partition %s" p.Config.pname

let eff ctx (s : Config.source) =
  Absint.c_bh_eff ~platform:ctx.config.Config.platform ~c_bh:s.Config.c_bh

(* Facts are produced in configuration order; pair them back with the
   declarations they describe. *)
let source_facts ctx = List.combine ctx.config.Config.sources ctx.ai.Absint.sources
let partition_facts ctx =
  List.combine ctx.config.Config.partitions ctx.ai.Absint.partitions

(* RTHV002: a slot that cannot even cover the slot-entry context switch
   provides zero service; the TDMA supply bound (eq. 8) is vacuous. *)
let rule_slot_covers_ctx ctx =
  List.concat
    (List.mapi
       (fun i (p : Config.partition) ->
         if ctx.slots.(i) <= ctx.c_ctx then
           [
             D.error ~code:"RTHV002" ~loc:(partition_loc p)
               ~hint:"grow the slot beyond C_ctx or drop the partition"
               (Format.asprintf
                  "slot %a cannot cover the slot-entry context switch C_ctx = \
                   %a: the partition never executes"
                  Cycles.pp ctx.slots.(i) Cycles.pp ctx.c_ctx);
           ]
         else [])
       ctx.config.Config.partitions)

(* RTHV003: eq. (14) reads I(dt) = eta+_monitor(dt) * C'_BH; a degenerate
   condition has eta+ = infinity for any positive window.  The abstract
   interpretation records exactly this as an unbounded interference
   interval. *)
let rule_monitor_bounded ctx =
  List.filter_map
    (fun ((s : Config.source), (f : Absint.source_fact)) ->
      if f.Absint.sf_degenerate then
        Some
          (D.error ~code:"RTHV003" ~loc:(source_loc s)
             ~hint:"use a positive d_min (or load bound) so eq. (14) bounds \
                    the interference"
             "monitoring condition admits unbounded load: every delta^- \
              entry is 0, so the eq.-(14) interference bound does not exist")
      else None)
    (source_facts ctx)

(* RTHV004: long-term processor share stolen by all grants together.  At
   >= 1.0 the interposed handlers alone overload the core; eq. (2) cannot
   hold for any partition.  The total is the abstract interpreter's
   closed-form utilisation fold. *)
let rule_interference_utilisation ctx =
  let loss = ctx.ai.Absint.util_loss_closed in
  if loss >= 1. -. 1e-9 then
    [
      D.error ~code:"RTHV004" ~loc:"system"
        ~hint:"enlarge the monitors' distances (Independence.required_d_min \
               sizes a d_min for a target utilisation)"
        (Printf.sprintf
           "granted monitors admit %.0f%% long-term interposition \
            utilisation (eq. 14): the interposed handlers alone overload \
            the processor"
           (100. *. loss));
    ]
  else []

let failing_tasks (v : Certificate.verdict) =
  List.filter_map
    (fun ((task : GS.task), result) ->
      match result with
      | Ok r when r.Rthv_analysis.Busy_window.response_time <= task.GS.period
        -> None
      | Ok _ | Error _ -> Some task.GS.name)
    v.Certificate.task_results

(* RTHV005: the full certification argument — eq. (2) with eq.-(14)
   interference, checked through the busy-window analysis of Guest_sched.
   This is a proof obligation, not a heuristic: the rule fails exactly when
   the abstract interpreter's grant-only certificate does. *)
let rule_certificate ctx =
  let cert = ctx.ai.Absint.closed in
  List.filter_map
    (fun (v : Certificate.verdict) ->
      let slot = ctx.slots.(v.Certificate.v_index) in
      if v.Certificate.schedulable || slot <= ctx.c_ctx (* RTHV002's case *)
      then None
      else
        Some
          (D.error ~code:"RTHV005"
             ~loc:(Printf.sprintf "partition %s" v.Certificate.v_name)
             ~hint:"shrink the grants' interference (larger d_min) or \
                    lighten the task set; see Certificate.pp for the numbers"
             (Printf.sprintf
                "task set not schedulable under TDMA service plus the \
                 grants' eq.-(14) interference budget %s (eq. 2 violated): \
                 failing task(s) %s"
                (Format.asprintf "%a" Cycles.pp v.Certificate.interference_budget)
                (String.concat ", " (failing_tasks v)))))
    cert.Certificate.verdicts

(* RTHV006: a necessary condition cheaper than the certificate — demand
   above the partition's TDMA share can never converge.  Share and task
   utilisation come straight from the partition facts. *)
let rule_partition_utilisation ctx =
  List.concat_map
    (fun ((p : Config.partition), (pf : Absint.partition_fact)) ->
      if pf.Absint.pf_slot <= ctx.c_ctx then []
      else
        let share = pf.Absint.pf_share in
        let u = pf.Absint.pf_task_util in
        if u > share +. 1e-9 then
          [
            D.error ~code:"RTHV006" ~loc:(partition_loc p)
              ~hint:"the slot share is (T_i - C_ctx) / T_TDMA; lengthen \
                     the slot or lighten the tasks"
              (Printf.sprintf
                 "task utilisation %.1f%% exceeds the partition's TDMA \
                  share %.1f%%: unschedulable regardless of interference"
                 (100. *. u) (100. *. share));
          ]
        else [])
    (partition_facts ctx)

(* RTHV007: self-learning monitors that can never do useful work. *)
let rule_learning_useful ctx =
  List.filter_map
    (fun (s : Config.source) ->
      match s.Config.shaping with
      | Config.Self_learning { learn_events = 0; _ } ->
          Some
            (D.warning ~code:"RTHV007" ~loc:(source_loc s)
               ~hint:"train on a prefix of the trace (the paper uses 10%)"
               "self-learning monitor with learn_events = 0: Algorithm 1 \
                learns nothing, the condition stays degenerate and no \
                activation is ever admitted")
      | Config.Self_learning { learn_events; _ }
        when Array.length s.Config.interarrivals > 0
             && learn_events >= Array.length s.Config.interarrivals ->
          Some
            (D.warning ~code:"RTHV007" ~loc:(source_loc s)
               ~hint:"use learn_events < the number of activations"
               (Printf.sprintf
                  "self-learning monitor never leaves the learning phase: \
                   learn_events = %d but the source only fires %d times"
                  learn_events
                  (Array.length s.Config.interarrivals)))
      | _ -> None)
    ctx.config.Config.sources

(* RTHV008: a grant for a source that never fires is certification noise. *)
let rule_vacuous_grant ctx =
  List.filter_map
    (fun (s : Config.source) ->
      if Absint.shaped s && Array.length s.Config.interarrivals = 0 then
        Some
          (D.warning ~code:"RTHV008" ~loc:(source_loc s)
             ~hint:"drop the grant or give the source a workload"
             "shaped source never fires (empty interarrival array): the \
              interposition grant is vacuous")
      else None)
    ctx.config.Config.sources

(* RTHV009: the monitor will do its job, but the integrator should know the
   workload requests more than the condition admits. *)
let rule_workload_within_condition ctx =
  List.filter_map
    (fun (s : Config.source) ->
      match s.Config.shaping with
      | Config.Fixed_monitor fn
        when (not (Bound.degenerate fn)) && Array.length s.Config.interarrivals > 0
        ->
          let n = Array.length s.Config.interarrivals in
          let total =
            Array.fold_left (fun acc d -> acc +. float_of_int d) 0.
              s.Config.interarrivals
          in
          let request_rate = float_of_int n /. total in
          let admitted_rate = DF.long_term_rate fn in
          if request_rate > admitted_rate *. (1. +. 1e-9) then
            Some
              (D.info ~code:"RTHV009" ~loc:(source_loc s)
                 ~hint:"expected: a fraction of events is denied and handled \
                        delayed; Fig. 6b shows the resulting latency mix"
                 (Printf.sprintf
                    "average request rate (%.1f events/s) exceeds the \
                     monitoring condition's admitted rate (%.1f events/s): \
                     sustained denials expected"
                    (request_rate *. 1e6 *. float_of_int Cycles.cycles_per_us)
                    (admitted_rate *. 1e6 *. float_of_int Cycles.cycles_per_us)))
          else None
      | _ -> None)
    ctx.config.Config.sources

(* RTHV010: Regehr & Duongsaa throttling admits bursts; at equal long-term
   rate its interference bound strictly dominates the d_min bound. *)
let rule_bucket_burst ctx =
  List.filter_map
    (fun (s : Config.source) ->
      match s.Config.shaping with
      | Config.Token_bucket { capacity; refill } when capacity > 1 ->
          Some
            (D.warning ~code:"RTHV010" ~loc:(source_loc s)
               ~hint:"a delta^- monitor at the same rate (d_min = refill) \
                      gives the tighter eq.-(14) bound"
               (Printf.sprintf
                  "token bucket with burst capacity %d: any window admits up \
                   to %d + dt/%s interpositions, so partitions must absorb \
                   %d back-to-back C'_BH hits — worse than the equivalent \
                   d_min bound"
                  capacity capacity
                  (Format.asprintf "%a" Cycles.pp refill)
                  capacity))
      | _ -> None)
    ctx.config.Config.sources

(* RTHV011: duplicate names break log and certificate attribution. *)
let rule_unique_partition_names ctx =
  let rec dups seen = function
    | [] -> []
    | (p : Config.partition) :: rest ->
        if List.mem p.Config.pname seen then
          D.warning ~code:"RTHV011" ~loc:(partition_loc p)
            ~hint:"rename so certificates and traces attribute uniquely"
            "duplicate partition name"
          :: dups seen rest
        else dups (p.Config.pname :: seen) rest
  in
  dups [] ctx.config.Config.partitions

(* RTHV012: handler-vs-slot sizing.  A grant whose C'_BH (eq. 13) exceeds
   the subscriber's whole slot makes a single interposition as heavy as a
   slot; a plain bottom handler that cannot finish within one effective slot
   monopolises the boundary-deferral mechanism every time. *)
let rule_handler_fits_slot ctx =
  List.filter_map
    (fun (s : Config.source) ->
      match List.nth_opt ctx.config.Config.partitions s.Config.subscriber with
      | None -> None (* RTHV001 territory *)
      | Some p ->
          let slot = ctx.slots.(s.Config.subscriber) in
          if Absint.shaped s && eff ctx s > slot then
            Some
              (D.error ~code:"RTHV012" ~loc:(source_loc s)
                 ~hint:"shrink C_BH or grow the subscriber's slot; eq. (13) \
                        adds C_sched + 2*C_ctx to every interposition"
                 (Format.asprintf
                    "grant's effective cost C'_BH = %a exceeds subscriber \
                     %s's entire slot (%a): one admitted interposition \
                     outweighs a full slot of service"
                    Cycles.pp (eff ctx s) p.Config.pname Cycles.pp slot))
          else if s.Config.c_bh > Cycles.( - ) slot ctx.c_ctx then
            Some
              (D.warning ~code:"RTHV012" ~loc:(source_loc s)
                 ~hint:"the handler spans TDMA cycles (strict mode) or \
                        defers every boundary (finish_bh_at_boundary)"
                 (Format.asprintf
                    "bottom handler (%a) cannot complete within one \
                     effective slot of subscriber %s (%a after C_ctx)"
                    Cycles.pp s.Config.c_bh p.Config.pname Cycles.pp
                    (Cycles.( - ) slot ctx.c_ctx)))
          else None)
    ctx.config.Config.sources

(* RTHV013: a budgeted grant large enough to consume a whole foreign slot.
   The source fact's proved interference interval over a window of one slot
   length caps the stolen time; if that cap meets or exceeds the slot, a
   single slot instance can be starved entirely — the per-slot analogue of
   RTHV004's long-term overload. *)
let rule_budget_fits_slots ctx =
  List.filter_map
    (fun ((s : Config.source), (f : Absint.source_fact)) ->
      match s.Config.shaping with
      | Config.Budgeted { per_cycle } ->
          let stolen_in slot =
            match List.assoc_opt slot f.Absint.sf_interference with
            | Some { Absint.Itv.hi = Some hi; _ } -> hi
            | Some { Absint.Itv.hi = None; _ } | None -> 0
          in
          let starved =
            List.concat
              (List.mapi
                 (fun i (p : Config.partition) ->
                   if i = s.Config.subscriber then []
                     (* interpositions steal only from foreign slots *)
                   else
                     let slot = ctx.slots.(i) in
                     if slot > 0 && stolen_in slot >= slot then
                       [ p.Config.pname ]
                     else [])
                 ctx.config.Config.partitions)
          in
          if starved = [] then None
          else
            Some
              (D.error ~code:"RTHV013" ~loc:(source_loc s)
                 ~hint:"shrink per_cycle (or C_BH) until the aligned-window \
                        bound stays below every foreign slot"
                 (Printf.sprintf
                    "interposition budget (%d per cycle, C'_BH = %s) can \
                     consume the entire slot of partition(s) %s in the worst \
                     case"
                    per_cycle
                    (Format.asprintf "%a" Cycles.pp f.Absint.sf_c_bh_eff)
                    (String.concat ", " starved)))
      | _ -> None)
    (source_facts ctx)

(* RTHV014: how the composite's bucket relates to its monitor — either the
   bucket is provably vacuous (policy degenerates to the monitor alone, the
   eq.-(16) per-instance bound applies) or it can deny conforming
   activations (eq. (16) does not apply; only the interference bound
   tightens). *)
let rule_composite_bucket ctx =
  List.filter_map
    (fun (s : Config.source) ->
      match s.Config.shaping with
      | Config.Monitor_and_bucket { fn; capacity; refill }
        when not (Bound.degenerate fn) ->
          let bucket = Bound.Bucketed { capacity; refill } in
          if Bound.vacuous_against fn bucket then
            Some
              (D.info ~code:"RTHV014" ~loc:(source_loc s)
                 ~hint:"drop the bucket, or tighten it below delta^-(2) if \
                        burst capping is the intent"
                 (Format.asprintf
                    "composite's bucket (capacity %d, refill %a) is vacuous \
                     against the monitoring condition: a token is always \
                     back before the condition admits again, so the policy \
                     equals the monitor alone and eq. (16) applies"
                    capacity Cycles.pp refill))
          else
            Some
              (D.warning ~code:"RTHV014" ~loc:(source_loc s)
                 ~hint:"conforming activations can be denied by the bucket; \
                        latency verdicts for interposed completions fall \
                        back to the monitored baseline bound"
                 (Format.asprintf
                    "composite's bucket (capacity %d, refill %a) binds \
                     before the monitoring condition: the eq.-(16) \
                     per-instance bound does not apply to this source"
                    capacity Cycles.pp refill))
      | _ -> None)
    ctx.config.Config.sources

(* RTHV015: a budget the workload can never exhaust is dead configuration —
   admission degenerates to always-admit while still paying C_Mon per
   check.  The workload's densest aligned-cycle window is a source fact. *)
let rule_budget_binds ctx =
  List.filter_map
    (fun ((s : Config.source), (f : Absint.source_fact)) ->
      match (s.Config.shaping, f.Absint.sf_workload_max_per_cycle) with
      | Config.Budgeted { per_cycle }, Some max_per_window
        when max_per_window <= per_cycle ->
          Some
            (D.info ~code:"RTHV015" ~loc:(source_loc s)
               ~hint:"shrink per_cycle until it can bind, or drop the \
                      budget and save the C_Mon checks"
               (Printf.sprintf
                  "interposition budget never binds: the workload requests \
                   at most %d admissions in any aligned TDMA-cycle window \
                   but the budget allows %d"
                  max_per_window per_cycle))
      | _ -> None)
    (source_facts ctx)

(* RTHV016: eq. (16) is a sole-interposer argument — it bounds the latency
   of an admitted activation assuming no other source's interposition can
   queue ahead of it.  The moment a second shaped source is active, an
   admitted activation can wait behind a foreign bottom handler (hypervisor
   work is serialized) and exceed the per-instance bound.  It fires exactly
   where the eq.-(16) gate ([sf_per_instance]) refuses a source that has a
   per-instance condition; the other active sources are named in the
   message only. *)
let rule_sole_interposer ctx =
  List.filter_map
    (fun ((s : Config.source), (f : Absint.source_fact)) ->
      if
        f.Absint.sf_active
        && Absint.has_instance_condition f
        && not f.Absint.sf_per_instance
      then
        let others =
          List.filter_map
            (fun (o : Absint.source_fact) ->
              if o.Absint.sf_name <> f.Absint.sf_name && o.Absint.sf_active
              then Some o.Absint.sf_name
              else None)
            ctx.ai.Absint.sources
        in
        Some
          (D.warning ~code:"RTHV016" ~loc:(source_loc s)
             ~hint:"latency verdicts for interposed completions fall back \
                    to the monitored baseline; drop the other grants to \
                    restore eq. (16)"
             (Printf.sprintf
                "eq.-(16) per-instance bound assumes this source is the \
                 sole interposer, but %d other shaped source(s) (%s) can \
                 interpose: cross-source queueing can delay an admitted \
                 activation past the per-instance bound"
                (List.length others)
                (String.concat ", " others)))
      else None)
    (source_facts ctx)

(* RTHV017: a weighted plan ignores the partitions' declared slot fields.
   When the apportioned slot can no longer complete one bottom handler that
   the declared slot could, the plan — not the handler — starves the
   subscriber: every execution in its own slot now spans slot boundaries. *)
let rule_weighted_starves_subscriber ctx =
  match ctx.config.Config.plan with
  | Config.Partition_slots -> []
  | Config.Weighted_plan _ ->
      List.filter_map
        (fun (s : Config.source) ->
          match
            List.nth_opt ctx.config.Config.partitions s.Config.subscriber
          with
          | None -> None (* RTHV001 territory *)
          | Some p ->
              let declared = p.Config.slot in
              let effective = ctx.slots.(s.Config.subscriber) in
              let fits slot = s.Config.c_bh <= Cycles.( - ) slot ctx.c_ctx in
              if fits declared && not (fits effective) then
                Some
                  (D.error ~code:"RTHV017" ~loc:(source_loc s)
                     ~hint:"raise the subscriber's weight or shrink C_BH; \
                            declared slot fields are ignored under a \
                            weighted plan"
                     (Format.asprintf
                        "weighted plan starves subscriber %s: the bottom \
                         handler (%a) fits the declared slot (%a, %a after \
                         C_ctx) but not the effective weighted slot (%a, %a \
                         after C_ctx)"
                        p.Config.pname Cycles.pp s.Config.c_bh Cycles.pp
                        declared Cycles.pp
                        (Cycles.( - ) declared ctx.c_ctx)
                        Cycles.pp effective Cycles.pp
                        (Cycles.( - ) effective ctx.c_ctx)))
              else None)
        ctx.config.Config.sources

(* RTHV018: the grant-only certificate (RTHV005) counts only delta^-
   monitored sources; buckets and budgets interfere just as physically.  The
   interval certificate sums every active policy's curve — when it refutes a
   partition the closed form passed, the configuration is certified by a
   blind spot, not by an argument. *)
let rule_interval_certificate ctx =
  match ctx.ai.Absint.full_verdicts with
  | None -> []
  | Some full ->
      List.filter_map
        (fun (v : Certificate.verdict) ->
          let slot = ctx.slots.(v.Certificate.v_index) in
          let closed_ok =
            List.exists
              (fun (c : Certificate.verdict) ->
                c.Certificate.v_index = v.Certificate.v_index
                && c.Certificate.schedulable)
              ctx.ai.Absint.closed.Certificate.verdicts
          in
          if v.Certificate.schedulable || (not closed_ok) || slot <= ctx.c_ctx
          then None
          else
            Some
              (D.error ~code:"RTHV018"
                 ~loc:(Printf.sprintf "partition %s" v.Certificate.v_name)
                 ~hint:"tighten the bucket/budget policies or lighten the \
                        task set; the grant-only certificate (RTHV005) does \
                        not see rate-based admissions"
                 (Printf.sprintf
                    "task set passes the grant-only eq.-(14) certificate but \
                     fails under the full policy-curve interference budget \
                     %s (bucket/budget admissions included): failing \
                     task(s) %s"
                    (Format.asprintf "%a" Cycles.pp
                       v.Certificate.interference_budget)
                    (String.concat ", " (failing_tasks v)))))
        full

(* RTHV019: admissions are serialized — at most one interposition is in
   flight, each occupying C'_BH of hypervisor-serialized time — so no window
   can physically complete more than the serialization ceiling.  A condition
   admitting more than that makes the eq.-(14) budget provably conservative:
   the certificate charges partitions for interference that cannot occur. *)
let rule_serialization_ceiling ctx =
  List.filter_map
    (fun ((s : Config.source), (f : Absint.source_fact)) ->
      if not f.Absint.sf_active then None
      else
        let admitted =
          match List.assoc_opt ctx.cycle f.Absint.sf_admissions with
          | Some { Absint.Itv.hi = Some hi; _ } -> Some hi
          | Some { Absint.Itv.hi = None; _ } | None -> None
        in
        let ceiling = List.assoc_opt ctx.cycle f.Absint.sf_ceiling in
        match (admitted, ceiling) with
        | Some eta, Some cap when eta > cap ->
            Some
              (D.info ~code:"RTHV019" ~loc:(source_loc s)
                 ~hint:"the certificate over-budgets this source; a \
                        condition near the serialization rate (one \
                        admission per C'_BH) frees budget for other grants"
                 (Printf.sprintf
                    "admission policy allows %d interpositions per TDMA \
                     cycle but serialization (one in flight, C'_BH = %s \
                     each) fits at most %d: the eq.-(14) budget is provably \
                     conservative"
                    eta
                    (Format.asprintf "%a" Cycles.pp f.Absint.sf_c_bh_eff)
                    cap))
        | _ -> None)
    (source_facts ctx)

(* RTHV020: sustained overload of a partition's service capacity.  Task
   utilisation plus the workload-derived bottom-half demand of the
   subscribed sources above the TDMA share means the backlog grows without
   bound — IRQ completion latency diverges even if every individual rule
   above is silent. *)
let rule_sustained_demand ctx =
  List.concat_map
    (fun ((p : Config.partition), (pf : Absint.partition_fact)) ->
      if pf.Absint.pf_slot <= ctx.c_ctx then []
      else
        let irq_demand = pf.Absint.pf_demand -. pf.Absint.pf_task_util in
        if irq_demand > 1e-12 && pf.Absint.pf_demand > pf.Absint.pf_share +. 1e-9
        then
          [
            D.error ~code:"RTHV020" ~loc:(partition_loc p)
              ~hint:"lengthen the slot, shed sources, or shrink C_BH; \
                     sustainable demand must stay within (T_i - C_ctx) / \
                     T_TDMA"
              (Printf.sprintf
                 "sustained demand (task utilisation %.1f%% plus bottom-half \
                  demand %.1f%% of the subscribed sources) exceeds the \
                  partition's TDMA share %.1f%%: the IRQ backlog grows \
                  without bound"
                 (100. *. pf.Absint.pf_task_util)
                 (100. *. irq_demand)
                 (100. *. pf.Absint.pf_share));
          ]
        else [])
    (partition_facts ctx)

let rules =
  [
    ("RTHV001", "configuration fails Config.validate");
    ("RTHV002", "partition slot cannot cover the slot-entry context switch");
    ("RTHV003", "monitoring condition admits unbounded load (no eq.-14 bound)");
    ("RTHV004", "granted monitors reach 1.0 long-term interference utilisation");
    ("RTHV005", "task set fails the independence certificate (eq. 2 + eq. 14)");
    ("RTHV006", "task utilisation exceeds the partition's TDMA share");
    ("RTHV007", "self-learning monitor never reaches a useful run phase");
    ("RTHV008", "shaped source never fires (vacuous grant)");
    ("RTHV009", "workload rate exceeds the monitoring condition (denials expected)");
    ("RTHV010", "token-bucket burst allowance dominates the d_min bound");
    ("RTHV011", "duplicate partition names");
    ("RTHV012", "bottom handler / grant does not fit the subscriber's slot");
    ("RTHV013", "interposition budget can starve a whole foreign slot");
    ("RTHV014", "composite bucket vacuous or binding against its monitor");
    ("RTHV015", "interposition budget never binds for the workload");
    ("RTHV016", "cross-source queueing voids the eq.-(16) sole-interposer gate");
    ("RTHV017", "weighted plan starves a subscriber below its declared slot");
    ("RTHV018", "full policy-curve certificate refutes a grant-only pass");
    ("RTHV019", "admission policy exceeds the serialization ceiling");
    ("RTHV020", "sustained partition demand exceeds the TDMA share");
  ]

let all_rules =
  [
    rule_slot_covers_ctx;
    rule_monitor_bounded;
    rule_interference_utilisation;
    rule_certificate;
    rule_partition_utilisation;
    rule_learning_useful;
    rule_vacuous_grant;
    rule_workload_within_condition;
    rule_bucket_burst;
    rule_unique_partition_names;
    rule_handler_fits_slot;
    rule_budget_fits_slots;
    rule_composite_bucket;
    rule_budget_binds;
    rule_sole_interposer;
    rule_weighted_starves_subscriber;
    rule_interval_certificate;
    rule_serialization_ceiling;
    rule_sustained_demand;
  ]

let analyze_with ai config =
  let ctx =
    {
      config;
      cycle = ai.Absint.cycle;
      c_ctx = ai.Absint.c_ctx;
      slots = Rthv_core.Slot_plan.slots (Config.slot_plan config);
      ai;
    }
  in
  Diagnostic.sort (List.concat_map (fun rule -> rule ctx) all_rules)

let analyze config =
  match Config.validate config with
  | Error msg ->
      [
        D.error ~code:"RTHV001" ~loc:"config"
          ~hint:"remaining rules assume a structurally valid configuration"
          msg;
      ]
  | Ok () -> analyze_with (Absint.analyze config) config
