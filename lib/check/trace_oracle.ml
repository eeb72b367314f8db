module Cycles = Rthv_engine.Cycles
module Platform = Rthv_hw.Platform
module Config = Rthv_core.Config
module Hyp_trace = Rthv_core.Hyp_trace
module Trace_store = Rthv_core.Trace_store
module K = Hyp_trace.Kind
module DF = Rthv_analysis.Distance_fn
module Independence = Rthv_analysis.Independence
module Bound = Rthv_analysis.Bound
module D = Diagnostic

type source_spec = {
  ss_line : int;
  ss_name : string;
  ss_subscriber : int;
  ss_c_th : Cycles.t;
  ss_budget : Cycles.t;
  ss_c_bh_eff : Cycles.t;
  ss_shaped : bool;
  ss_condition : DF.t option;
  ss_bound : Independence.interference_curve option;
}

type service_claim = { sc_partition : int; sc_min_total : Cycles.t }

type spec = {
  partitions : int;
  slots : Cycles.t list;
  cycle : Cycles.t;
  c_mon : Cycles.t;
  c_sched : Cycles.t;
  c_ctx : Cycles.t;
  sources : source_spec list;
  claims : service_claim list;
}

let of_config (config : Config.t) =
  let platform = config.Config.platform in
  let plan = Config.slot_plan config in
  let cycle = Rthv_core.Slot_plan.cycle_length plan in
  let sources =
    List.map
      (fun (s : Config.source) ->
        let policy = Absint.bound_policy ~cycle s.Config.shaping in
        let condition =
          match Bound.condition policy with
          | Some fn when Bound.degenerate fn -> None
          | c -> c
        in
        let c_bh_eff = Absint.c_bh_eff ~platform ~c_bh:s.Config.c_bh in
        {
          ss_line = s.Config.line;
          ss_name = s.Config.name;
          ss_subscriber = s.Config.subscriber;
          ss_c_th = s.Config.c_th;
          ss_budget = s.Config.c_bh;
          ss_c_bh_eff = c_bh_eff;
          ss_shaped = Bound.shaped policy;
          ss_condition = condition;
          ss_bound = Bound.interference policy ~c_bh_eff;
        })
      config.Config.sources
  in
  {
    partitions = List.length config.Config.partitions;
    slots = Array.to_list (Rthv_core.Slot_plan.slots plan);
    cycle;
    c_mon = Platform.monitor_cost platform;
    c_sched = Platform.sched_manip_cost platform;
    c_ctx = Platform.ctx_switch_cost platform;
    sources;
    claims = [];
  }

type measurement = {
  m_horizon : Cycles.t;
  m_service : Cycles.t array;
  m_charges : (int option * Cycles.t * Cycles.t) list;
  m_admitted : (int * int) list;
}

(* --- the fold ----------------------------------------------------------- *)

type active = {
  a_irq : int;
  a_source : source_spec option;
  a_line : int option;
  a_charge_time : Cycles.t;
      (* The admitted activation's arrival (the window's start without
         one): the line and the charge outlive the IRQ's in-flight entry,
         which its completion drops before the window ends. *)
  a_target : int;
  a_start : Cycles.t;
  mutable a_allowance : Cycles.t;
      (* Hypervisor work that preempted the interposition window: it elapses
         wall-clock time inside [start, end] without consuming budget. *)
}

type t = {
  spec : spec;
  mutable diags : D.t list;
  mutable index : int;
  mutable at : Cycles.t;
      (* Position and timestamp of the event being folded: a diagnostic's
         location, formatted only when one is reported. *)
  mutable last_time : Cycles.t;
  mutable owner : int;
  irq_line : (int, int) Hashtbl.t;
  admitted_arrival : (int, Cycles.t) Hashtbl.t;
      (* In-flight IRQs only: a bottom-handler completion drops both
         entries. *)
  history : (int, Cycles.t list) Hashtbl.t;
      (* line -> last l admitted arrivals, newest first. *)
  mutable pending : (int * int ref) option;
      (* Admitted irq whose interposition has not started yet, with the
         number of slot switches seen since the decision: their C_ctx
         hypervisor items are queued behind the admission's ctx switch and
         drain inside the upcoming window. *)
  mutable active : active option;
  mutable completed : (Cycles.t * Cycles.t * int option) list;
      (* (charge time, cost, source line) *)
  service : Cycles.t array;
      (* Per-partition net service: owned span length minus the slot-entry
         switch and the hypervisor/bottom-half work that ran inside it. *)
  mutable span_start : Cycles.t;
  mutable span_stolen : Cycles.t;  (* steals inside the current span *)
  admitted_count : (int, int ref) Hashtbl.t;  (* line -> admissions *)
  mutable max_raised : int;
      (* Highest id raised so far, -1 before the first raise: synthetic
         traces may record none, and RTHV108 only arms on a trace that
         records raises.  IRQs are numbered in raise order (Sim_route). *)
}

let create spec =
  {
    spec;
    diags = [];
    index = -1;
    at = Cycles.zero;
    last_time = Cycles.zero;
    owner = 0;
    irq_line = Hashtbl.create 64;
    admitted_arrival = Hashtbl.create 64;
    history = Hashtbl.create 8;
    pending = None;
    active = None;
    completed = [];
    service = Array.make (Stdlib.max 1 spec.partitions) Cycles.zero;
    span_start = Cycles.zero;
    span_stolen = Cycles.zero;
    admitted_count = Hashtbl.create 8;
    max_raised = -1;
  }

let source_by_line st line =
  List.find_opt (fun ss -> ss.ss_line = line) st.spec.sources

let report st d = st.diags <- d :: st.diags

let here st = Format.asprintf "trace[%d] t=%a" st.index Cycles.pp st.at

let structural st message =
  report st (D.error ~code:"RTHV106" ~loc:(here st) message)

(* RTHV102: an admitted activation must keep the configured distances to the
   previously admitted activations of its line (the monitor's own rule —
   eq. (14) is sound only because the admitted stream conforms). *)
let check_admission st ss arrival =
  match ss.ss_condition with
  | None -> ()
  | Some fn ->
      let hist =
        Option.value ~default:[] (Hashtbl.find_opt st.history ss.ss_line)
      in
      List.iteri
        (fun i prev ->
          let q = i + 2 in
          let need = DF.delta fn q in
          if Cycles.( - ) arrival prev < need then
            report st
              (D.error ~code:"RTHV102" ~loc:(here st)
                 ~hint:"the monitor must deny activations closer than \
                        delta^- to the admitted history"
                 (Format.asprintf
                    "source %s: admitted activation at %a is only %a after \
                     the admitted activation %d position(s) back — the \
                     condition requires delta^-(%d) = %a"
                    ss.ss_name Cycles.pp arrival Cycles.pp
                    (Cycles.( - ) arrival prev)
                    (i + 1) q Cycles.pp need)))
        hist;
      let l = DF.length fn in
      let rec take n = function
        | x :: rest when n > 0 -> x :: take (n - 1) rest
        | _ -> []
      in
      Hashtbl.replace st.history ss.ss_line (take l (arrival :: hist))

(* Close the current ownership span at [time] and credit the owner with its
   net service: span length minus the slot-entry switch and the steals that
   accumulated inside it (never below zero). *)
let close_span st time =
  if st.owner >= 0 && st.owner < Array.length st.service then begin
    let span = Cycles.( - ) time st.span_start in
    let net =
      Cycles.max 0
        (Cycles.( - ) (Cycles.( - ) span st.spec.c_ctx) st.span_stolen)
    in
    st.service.(st.owner) <- Cycles.( + ) st.service.(st.owner) net
  end;
  st.span_start <- time;
  st.span_stolen <- Cycles.zero

let steal st cost = st.span_stolen <- Cycles.( + ) st.span_stolen cost

let bump_allowance st cost =
  match st.active with
  | Some a -> a.a_allowance <- Cycles.( + ) a.a_allowance cost
  | None -> ()

let finish_interposition st ~time a =
  let execution = Cycles.( - ) (Cycles.( - ) time a.a_start) a.a_allowance in
  (match a.a_source with
  | Some ss when execution > ss.ss_budget ->
      report st
        (D.error ~code:"RTHV103" ~loc:(here st)
           ~hint:"the hypervisor must cut the interposition the moment the \
                  budget is exhausted (Figure 4b)"
           (Format.asprintf
              "source %s: interposition executed %a but the granted budget \
               C_BH is %a (window %a..%a minus %a of preempting hypervisor \
               work)"
              ss.ss_name Cycles.pp execution Cycles.pp ss.ss_budget Cycles.pp
              a.a_start Cycles.pp time Cycles.pp a.a_allowance))
  | Some _ | None -> ());
  let cost =
    Cycles.( + )
      (Cycles.( + ) st.spec.c_sched (Cycles.( * ) st.spec.c_ctx 2))
      (Cycles.max execution 0)
  in
  st.completed <- (a.a_charge_time, cost, a.a_line) :: st.completed;
  (* The window plus its bracketing hypervisor work ran inside the slot that
     owns [time]: that slot's tasks lose the whole charge. *)
  steal st cost;
  st.active <- None

(* One row of the Hyp_trace schema; its columns are named per kind. *)
let row st ~time ~kind ~a ~b ~c ~d =
  let kind = Hyp_trace.kind_of_id kind in
  st.index <- st.index + 1;
  st.at <- time;
  if time < st.last_time then
    report st
      (D.error ~code:"RTHV101" ~loc:(here st)
         (Format.asprintf
            "trace timestamps go backwards: %a after %a" Cycles.pp time
            Cycles.pp st.last_time));
  st.last_time <- Cycles.max st.last_time time;
  match kind with
  | K.Boundary_deferred -> ()
  | K.Irq_raised ->
      let irq = a and line = b in
      if source_by_line st line = None then
        structural st
          (Printf.sprintf "irq %d raised on unconfigured line %d" irq line);
      if irq <= st.max_raised then
        report st
          (D.error ~code:"RTHV108" ~loc:(here st)
             ~hint:"each IRQ instance id must be raised exactly once; a \
                    duplicate raise breaks the causal span accounting"
             (Printf.sprintf "irq %d raised twice" irq))
      else begin
        st.max_raised <- irq;
        Hashtbl.replace st.irq_line irq line
      end
  | K.Bottom_handler_start ->
      (* A zero-cost marker bracketing the bottom-half slice of the span:
         no allowance bump, no slot check (RTHV105 judges the completion). *)
      ()
  | K.Irq_coalesced ->
      let line = a in
      if source_by_line st line = None then
        structural st
          (Printf.sprintf "coalesced raise on unconfigured line %d" line)
  | K.Slot_switch ->
      let from_partition = a and to_partition = b in
      if from_partition <> st.owner then
        structural st
          (Printf.sprintf
             "slot switch from partition %d, but partition %d owned the slot"
             from_partition st.owner);
      close_span st time;
      st.owner <- to_partition;
      (match st.pending with Some (_, n) -> incr n | None -> ())
  | K.Top_handler_run -> (
      let irq = a and line = b in
      Hashtbl.replace st.irq_line irq line;
      match source_by_line st line with
      | Some ss ->
          bump_allowance st ss.ss_c_th;
          steal st ss.ss_c_th
      | None ->
          structural st
            (Printf.sprintf "top handler on unconfigured line %d" line))
  | K.Monitor_decision -> (
      let irq = a and line = b and arrival = c in
      let verdict = Hyp_trace.verdict_of_code d in
      Hashtbl.replace st.irq_line irq line;
      bump_allowance st st.spec.c_mon;
      steal st st.spec.c_mon;
      match verdict with
      | `Denied | `Fallback_direct -> ()
      | `Admitted -> (
          Hashtbl.replace st.admitted_arrival irq arrival;
          (match Hashtbl.find_opt st.admitted_count line with
          | Some n -> incr n
          | None -> Hashtbl.replace st.admitted_count line (ref 1));
          (match st.pending with
          | Some (previous, _) ->
              structural st
                (Printf.sprintf
                   "activation admitted while irq %d's admitted \
                    interposition has not started yet"
                   previous)
          | None -> ());
          st.pending <- Some (irq, ref 0);
          match source_by_line st line with
          | Some ss -> check_admission st ss arrival
          | None ->
              structural st
                (Printf.sprintf "monitor decision on unconfigured line %d" line)))
  | K.Interposition_start ->
      let irq = a and target = b in
      (match st.active with
      | Some a ->
          structural st
            (Printf.sprintf
               "interposition for irq %d starts while irq %d's is still \
                active"
               irq a.a_irq);
          (* Judge the abandoned window at the point it was superseded. *)
          finish_interposition st ~time a
      | None -> ());
      let allowance =
        match st.pending with
        | Some (p_irq, crossings) when p_irq = irq ->
            st.pending <- None;
            Cycles.( * ) st.spec.c_ctx !crossings
        | Some _ | None ->
            structural st
              (Printf.sprintf
                 "interposition for irq %d starts without a matching \
                  admitted monitor decision"
                 irq);
            Cycles.zero
      in
      let line = Hashtbl.find_opt st.irq_line irq in
      let source =
        match line with
        | None ->
            structural st
              (Printf.sprintf "interposition for unknown irq %d" irq);
            None
        | Some line -> (
            match source_by_line st line with
            | None ->
                structural st
                  (Printf.sprintf "interposition on unconfigured line %d" line);
                None
            | Some ss ->
                if ss.ss_subscriber <> target then
                  structural st
                    (Printf.sprintf
                       "interposition targets partition %d but line %d's \
                        subscriber is partition %d"
                       target ss.ss_line ss.ss_subscriber);
                Some ss)
      in
      st.active <-
        Some
          {
            a_irq = irq;
            a_source = source;
            a_line = line;
            a_charge_time =
              Option.value ~default:time
                (Hashtbl.find_opt st.admitted_arrival irq);
            a_target = target;
            a_start = time;
            a_allowance = allowance;
          }
  | K.Interposition_crossed_boundary -> (
      let target = a in
      match st.active with
      | Some a when a.a_target = target -> a.a_allowance <- Cycles.( + ) a.a_allowance st.spec.c_ctx
      | Some a ->
          structural st
            (Printf.sprintf
               "boundary crossing reported for partition %d but the active \
                interposition targets partition %d"
               target a.a_target)
      | None ->
          structural st
            "boundary crossing reported with no interposition in flight")
  | K.Interposition_end -> (
      let target = a in
      (* The reason does not enter the audit, but a store's must decode. *)
      ignore (Hyp_trace.reason_of_code b : [ `Budget_exhausted | `Queue_empty ]);
      match st.active with
      | None ->
          structural st "interposition end with no interposition in flight"
      | Some a ->
          if a.a_target <> target then
            structural st
              (Printf.sprintf
                 "interposition end for partition %d but the active \
                  interposition targets partition %d"
                 target a.a_target);
          finish_interposition st ~time a)
  | K.Bottom_handler_done -> (
      let irq = a and partition = b in
      let line = Hashtbl.find_opt st.irq_line irq in
      (* RTHV108: every completion must match exactly one raise — no orphan
         completions and no duplicate completions of the same instance. *)
      if st.max_raised >= 0 then
        if irq > st.max_raised then
          report st
            (D.error ~code:"RTHV108" ~loc:(here st)
               ~hint:"every bottom-handler completion must trace back to an \
                      Irq_raised event for the same instance id"
               (Printf.sprintf
                  "irq %d's bottom handler completed but the trace has no \
                   matching raise"
                  irq))
        else if line = None then
          report st
            (D.error ~code:"RTHV108" ~loc:(here st)
               ~hint:"a bottom handler completes its IRQ instance exactly once"
               (Printf.sprintf "irq %d's bottom handler completed twice" irq));
      Hashtbl.remove st.irq_line irq;
      Hashtbl.remove st.admitted_arrival irq;
      (* An own-slot completion executed its C_BH inside the owner's span
         (interposed completions are charged at Interposition_end). *)
      (match (st.active, line) with
      | None, Some line when partition = st.owner -> (
          match source_by_line st line with
          | Some ss -> steal st ss.ss_budget
          | None -> ())
      | _ -> ());
      if partition <> st.owner then
        match st.active with
        | Some a when a.a_target = partition -> ()
        | Some _ | None ->
            report st
              (D.error ~code:"RTHV105" ~loc:(here st)
                 ~hint:"outside its own slot a bottom handler may only run \
                        inside an admitted interposition (Section 5)"
                 (Printf.sprintf
                    "bottom handler of partition %d completed during \
                     partition %d's slot with no admitted interposition \
                     targeting it"
                    partition st.owner)))

(* RTHV104: equation (14) over the run.  Each completed interposition is
   charged C_sched + 2*C_ctx + execution at the arrival of the activation it
   was admitted for; in every window anchored at a charge and sized by a
   partition slot or the full cycle, the charges must stay within the summed
   static interference curves (plus one carry-in C'_BH). *)
let check_interference st =
  let unbounded =
    List.exists (fun ss -> ss.ss_shaped && ss.ss_bound = None) st.spec.sources
  in
  let charges =
    List.sort
      (fun (a, _) (b, _) -> Cycles.compare a b)
      (List.rev_map (fun (t, cost, _line) -> (t, cost)) st.completed)
  in
  if unbounded || charges = [] then ()
  else begin
    let carry =
      List.fold_left
        (fun acc ss -> if ss.ss_shaped then Cycles.max acc ss.ss_c_bh_eff else acc)
        0 st.spec.sources
    in
    let bound dt =
      List.fold_left
        (fun acc ss ->
          match ss.ss_bound with
          | Some curve -> Cycles.( + ) acc (curve dt)
          | None -> acc)
        carry st.spec.sources
    in
    let arr = Array.of_list charges in
    let n = Array.length arr in
    let windows = List.sort_uniq Cycles.compare (st.spec.cycle :: st.spec.slots) in
    List.iter
      (fun dt ->
        let budget = bound dt in
        let j = ref 0 in
        let sum = ref 0 in
        for i = 0 to n - 1 do
          let anchor = fst arr.(i) in
          (* Grow the window to cover [anchor, anchor + dt). *)
          while !j < n && fst arr.(!j) < Cycles.( + ) anchor dt do
            sum := Cycles.( + ) !sum (snd arr.(!j));
            incr j
          done;
          if !sum > budget then
            report st
              (D.error ~code:"RTHV104"
                 ~loc:(Format.asprintf "window %a+%a" Cycles.pp anchor Cycles.pp dt)
                 ~hint:"equation (14) plus one carry-in bounds the \
                        interposition load in every window; an excess means \
                        the monitors under-enforced their conditions"
                 (Format.asprintf
                    "interpositions charged %a in the window, exceeding the \
                     summed eq.-(14) bound of %a"
                    Cycles.pp !sum Cycles.pp budget));
          (* Drop this anchor's charge before moving to the next anchor. *)
          sum := Cycles.( - ) !sum (snd arr.(i))
        done)
      windows
  end

(* RTHV109: a service claim asserts the analysis-level supply bound — the
   partition receives at least [sc_min_total] of net service over the run.
   Measuring less refutes the claimed bound; this is the confirmation
   channel for service-side refutations (RTHV006/RTHV017/RTHV020), as
   RTHV104 with claim curves is for interference-side ones. *)
let refuted_claims claims m =
  List.filter_map
    (fun { sc_partition; sc_min_total } ->
      let p = sc_partition in
      if p < 0 || p >= Array.length m.m_service then None
      else if m.m_service.(p) >= sc_min_total then None
      else
        Some
          (D.error ~code:"RTHV109"
             ~loc:(Printf.sprintf "partition %d" p)
             ~hint:"the claimed supply bound does not hold on this run: the \
                    refutation's witness trace is confirmed"
             (Format.asprintf
                "partition received %a of net service but the claim \
                 requires at least %a"
                Cycles.pp m.m_service.(p) Cycles.pp sc_min_total)))
    claims

(* A trace cut mid-window (horizon) is not judged: only terminated
   interpositions enter the interference accounting. *)
let finish st =
  close_span st st.last_time;
  let m =
    {
      m_horizon = st.last_time;
      m_service = st.service;
      m_charges =
        List.rev_map (fun (t, cost, line) -> (line, t, cost)) st.completed;
      m_admitted =
        List.sort compare
          (Hashtbl.fold
             (fun line n acc -> (line, !n) :: acc)
             st.admitted_count []);
    }
  in
  check_interference st;
  List.iter (report st) (refuted_claims st.spec.claims m);
  (D.sort (List.rev st.diags), m)

let attach spec trace =
  let st = create spec in
  Hyp_trace.set_row_spill trace (row st);
  st

let audit spec trace =
  let dropped = Hyp_trace.dropped trace in
  if dropped > 0 then
    [
      D.warning ~code:"RTHV107" ~loc:"trace"
        ~hint:"attach the audit before the run (Trace_oracle.attach folds \
               every event as it is recorded) or enlarge the ring"
        (Printf.sprintf
           "trace ring buffer dropped %d of %d entries; the invariant audit \
            needs the full stream and was skipped"
           dropped (Hyp_trace.recorded trace));
    ]
  else begin
    let st = create spec in
    Hyp_trace.iter_rows trace (row st);
    fst (finish st)
  end

let audit_entries spec entries =
  audit spec (Rthv_core.Trace_export.trace_of_entries entries)

let audit_store spec path =
  let st = create spec in
  match
    Trace_store.scan path ~f:(row st)
  with
  | (_ : Rthv_obs.Tracestore.stats) -> Ok (fst (finish st))
  | exception Rthv_obs.Tracestore.Corrupt msg -> Error msg
  | exception Sys_error msg -> Error msg

let invariants =
  [
    ("RTHV101", "trace timestamps go backwards");
    ("RTHV102", "admitted activation violates the configured delta^- condition");
    ("RTHV103", "interposition executed beyond its C_BH budget");
    ("RTHV104", "interposition load exceeds the eq.-(14) window bound");
    ("RTHV105", "bottom handler completed outside its subscriber's slot");
    ("RTHV106", "structurally inconsistent interposition event stream");
    ("RTHV107", "trace buffer dropped entries; audit skipped");
    ("RTHV108", "bottom-handler completion without exactly one matching raise");
    ("RTHV109", "measured net service refutes a claimed supply bound");
  ]
