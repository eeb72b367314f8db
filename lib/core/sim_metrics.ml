(* The registry consumer of a live simulation.  Series handles are
   registered on first use and cached by index (line, class, verdict or
   partition), so a series appears exactly when its first sample does and
   the per-event cost is an array read. *)

module Cycles = Rthv_engine.Cycles
module Registry = Rthv_obs.Registry
module Labels = Rthv_obs.Labels
module Quantile = Rthv_obs.Quantile
module K = Hyp_trace.Kind

let help =
  [
    ("rthv_irq_completed_total", "IRQs completed, by source and handling class.");
    ("rthv_irq_latency_us", "IRQ activation-to-completion latency in microseconds.");
    ("rthv_irq_spans_total", "Per-IRQ causal spans recorded.");
    ("rthv_irq_component_us", "Per-IRQ latency component in microseconds, by causal component.");
    ("rthv_monitor_decisions_total", "Monitor admission decisions, by verdict.");
    ("rthv_interpositions_total", "Interposed bottom-handler executions started.");
    ("rthv_irq_coalesced_total", "IRQs coalesced onto an already-pending activation.");
    ("rthv_slot_switches_total", "TDMA slot switches.");
    ("rthv_boundary_crossings_total", "Interpositions that crossed a slot boundary.");
    ("rthv_bh_boundary_deferrals_total", "Bottom handlers deferred at a slot boundary.");
    ("rthv_stolen_slot_us", "Slot time stolen by interposition per slot, in microseconds.");
    ("rthv_sim_time_us", "Total simulated time in microseconds.");
  ]

type series = {
  completed : int ref;
  latency : Quantile.t;
  spans : int ref;
  components : Quantile.t array;  (* Irq_fold.components order *)
}

type t = {
  reg : Registry.t;
  names : string array;  (* source name by line *)
  by_class : series option array;  (* line * 4 + class *)
  decisions : int ref option array;  (* line * 3 + verdict code *)
  interpositions : int ref option array;  (* by partition *)
  coalesced : int ref option array;  (* by line *)
  scalars : int ref option array;  (* slot switches, crossings, deferrals *)
  stolen : Quantile.t option array;  (* by partition *)
}

(* [cells.(i)], registered by [register t i] on first use. *)
let cached t cells i register =
  match cells.(i) with
  | Some v -> v
  | None ->
      let v = register t i in
      cells.(i) <- Some v;
      v

let new_series (sp : Irq_fold.span) t _ =
  let labels =
    Labels.v
      [
        ("source", sp.Irq_fold.source);
        ("class", Irq_fold.class_name sp.Irq_fold.cls);
      ]
  in
  {
    completed =
      Registry.counter t.reg
        ~labels:
          (Labels.add "partition" (string_of_int sp.Irq_fold.partition) labels)
        "rthv_irq_completed_total";
    latency = Registry.summary t.reg ~labels "rthv_irq_latency_us";
    spans = Registry.counter t.reg ~labels "rthv_irq_spans_total";
    components =
      Array.of_list
        (List.map
           (fun (c, _) ->
             Registry.summary t.reg
               ~labels:(Labels.add "component" c labels)
               "rthv_irq_component_us")
           (Irq_fold.components sp));
  }

let span t (sp : Irq_fold.span) =
  let cls =
    match sp.Irq_fold.cls with
    | Some Irq_record.Direct -> 0
    | Some Irq_record.Interposed -> 1
    | Some Irq_record.Delayed -> 2
    | None -> 3
  in
  let s = cached t t.by_class ((sp.Irq_fold.line * 4) + cls) (new_series sp) in
  incr s.completed;
  Quantile.observe s.latency (Irq_fold.latency_us sp);
  incr s.spans;
  for j = 0 to 4 do
    Quantile.observe s.components.(j) (Irq_fold.component sp j)
  done

(* Label values by verdict code. *)
let verdict_names = [| "admitted"; "denied"; "fallback_direct" |]

let decision_counter t k =
  Registry.counter t.reg
    ~labels:
      (Labels.v
         [ ("source", t.names.(k / 3)); ("verdict", verdict_names.(k mod 3)) ])
    "rthv_monitor_decisions_total"

let keyed name key t i =
  Registry.counter t.reg ~labels:(Labels.of_int key i) name

let interposition_counter = keyed "rthv_interpositions_total" "partition"
let coalesced_counter = keyed "rthv_irq_coalesced_total" "line"

let scalar_names =
  [|
    "rthv_slot_switches_total"; "rthv_boundary_crossings_total";
    "rthv_bh_boundary_deferrals_total";
  |]

let scalar_counter t i = Registry.counter t.reg scalar_names.(i)

let row t fold ~time ~kind ~a ~b ~c ~d =
  (match Hyp_trace.kind_of_id kind with
  | K.Monitor_decision ->
      incr (cached t t.decisions ((b * 3) + d) decision_counter)
  | K.Interposition_start ->
      incr (cached t t.interpositions b interposition_counter)
  | K.Irq_coalesced -> incr (cached t t.coalesced a coalesced_counter)
  | K.Slot_switch -> incr (cached t t.scalars 0 scalar_counter)
  | K.Interposition_crossed_boundary ->
      incr (cached t t.scalars 1 scalar_counter)
  | K.Boundary_deferred -> incr (cached t t.scalars 2 scalar_counter)
  | K.Irq_raised | K.Top_handler_run | K.Interposition_end
  | K.Bottom_handler_start | K.Bottom_handler_done ->
      ());
  Irq_fold.row fold ~time ~kind ~a ~b ~c ~d

let attach reg (config : Config.t) trace =
  List.iter (fun (name, doc) -> Registry.set_help reg name doc) help;
  let lines =
    List.fold_left
      (fun m (s : Config.source) -> max m (s.Config.line + 1))
      0 config.Config.sources
  in
  let names = Array.make lines "" in
  List.iter
    (fun (s : Config.source) -> names.(s.Config.line) <- s.Config.name)
    config.Config.sources;
  let partitions = List.length config.Config.partitions in
  let t =
    {
      reg;
      names;
      by_class = Array.make (lines * 4) None;
      decisions = Array.make (lines * 3) None;
      interpositions = Array.make partitions None;
      coalesced = Array.make lines None;
      scalars = Array.make 3 None;
      stolen = Array.make partitions None;
    }
  in
  Hyp_trace.set_row_spill trace (row t (Irq_fold.create ~config (span t)));
  t

let slot_closed t ~owner stolen =
  let summary t p =
    Registry.summary t.reg ~labels:(Labels.of_int "partition" p)
      "rthv_stolen_slot_us"
  in
  Quantile.observe (cached t t.stolen owner summary) (Cycles.to_us stolen)

let finished t now =
  Registry.set_gauge t.reg "rthv_sim_time_us" (Cycles.to_us now)
