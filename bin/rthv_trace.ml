(* rthv_trace: record or re-export hypervisor timelines and print a
   metrics summary.

   Record a scenario and write a Perfetto-loadable Chrome trace:
     rthv_trace --scenario quickstart --format chrome -o trace.json

   Record to JSONL (one structured event per line), then re-export the
   file without re-simulating:
     rthv_trace -s quickstart --format jsonl -o run.jsonl
     rthv_trace --from-jsonl run.jsonl --format chrome -o trace.json

   Filter to one partition inside a time window:
     rthv_trace -s avionics_ima --partition 2 --from-us 0 --to-us 56000 \
                --format chrome -o p2.json

   The summary is a dump of the lib/obs metrics registry: every simulator
   instrumentation point (latency quantiles, monitor verdicts, stolen time)
   plus per-event-kind trace counts; --metrics selects the rendering. *)

module Cycles = Rthv_engine.Cycles
module Config = Rthv_core.Config
module Hyp_sim = Rthv_core.Hyp_sim
module Hyp_trace = Rthv_core.Hyp_trace
module Trace_export = Rthv_core.Trace_export
module Trace_store = Rthv_core.Trace_store
module Trace_query = Rthv_core.Trace_query
module Vcd_export = Rthv_core.Vcd_export
module Irq_fold = Rthv_core.Irq_fold
module Attribution = Rthv_core.Attribution
module Obs = Rthv_obs
module Scenarios = Rthv_check.Scenarios
module Slo = Rthv_check.Slo

type source = Scenario of string | From_jsonl of string | From_store of string
type format = Chrome | Jsonl | Vcd | Store
type metrics = M_text | M_json | M_prometheus | M_none

(* --- recording ---------------------------------------------------------- *)

let line_partition (config : Config.t) line =
  List.find_map
    (fun (s : Config.source) ->
      if s.Config.line = line then Some s.Config.subscriber else None)
    config.Config.sources

let record_scenario ~capacity ~registry name =
  match Scenarios.find name with
  | None ->
      Error
        (Printf.sprintf "unknown scenario %S (available: %s)" name
           (String.concat ", " (List.map fst Scenarios.all)))
  | Some build ->
      let config = build () in
      let trace = Hyp_trace.create ~capacity () in
      let sim =
        Obs.Registry.with_installed registry (fun () ->
            Hyp_sim.create ~trace config)
      in
      Hyp_sim.run sim;
      let names =
        Array.of_list
          (List.map
             (fun (p : Config.partition) -> p.Config.pname)
             config.Config.partitions)
      in
      Ok
        ( { Trace_export.entries = Hyp_trace.to_list trace;
            dropped = Hyp_trace.dropped trace },
          Some names,
          Some (line_partition config) )

(* --- filtering ---------------------------------------------------------- *)

let apply_filters ~partition ~from_us ~to_us ~line_partition entries =
  let from_c = Option.map Cycles.of_us from_us in
  let to_c = Option.map Cycles.of_us to_us in
  let r = Array.make 6 0 in
  List.filter
    (fun e ->
      let time_ok =
        (match from_c with Some f -> e.Hyp_trace.time >= f | None -> true)
        && match to_c with Some u -> e.Hyp_trace.time <= u | None -> true
      in
      (* The store's partition rule: unattributable events (no line map,
         e.g. re-exported JSONL) are kept rather than silently hiding
         hypervisor activity. *)
      let partition_ok =
        match partition with
        | None -> true
        | Some p ->
            Hyp_trace.encode r 0 ~time:e.Hyp_trace.time e.Hyp_trace.event;
            Trace_store.row_partition_matches ~line_partition ~p ~kind:r.(1)
              ~a:r.(2) ~b:r.(3)
      in
      time_ok && partition_ok)
    entries

(* --- summary ------------------------------------------------------------ *)

let count_trace_events registry entries =
  let r = Array.make 6 0 in
  List.iter
    (fun e ->
      Hyp_trace.encode r 0 ~time:e.Hyp_trace.time e.Hyp_trace.event;
      Obs.Registry.incr registry
        ~labels:(Obs.Labels.v [ ("ev", Hyp_trace.kind_name r.(1)) ])
        "rthv_trace_events_total" 1)
    entries

let print_summary ppf metrics registry =
  match metrics with
  | M_none -> ()
  | M_text ->
      Format.fprintf ppf "-- metrics (%d series) --@.%a"
        (Obs.Registry.cardinality registry)
        Obs.Registry.pp registry
  | M_json ->
      Format.fprintf ppf "%s@."
        (Obs.Json.to_string (Obs.Registry.to_json registry))
  | M_prometheus ->
      Format.fprintf ppf "%s" (Obs.Registry.to_prometheus registry)

(* --- main --------------------------------------------------------------- *)

let write_output ~out render =
  match out with
  | "-" ->
      print_string (render ());
      flush stdout
  | path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (render ()))

let main jobs flight_dir source format out to_store partition from_us
    to_us metrics capacity =
  Option.iter Rthv_par.Par.set_default_jobs jobs;
  Option.iter
    (fun dir -> Rthv_core.Flight_recorder.enable ~dir ())
    flight_dir;
  let registry = Obs.Registry.create () in
  let recorded =
    match source with
    | Scenario name -> record_scenario ~capacity ~registry name
    | From_jsonl path -> (
        match Trace_export.load_jsonl ~path with
        | Ok jsonl -> Ok (jsonl, None, None)
        | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
    | From_store path -> (
        match Trace_store.read_entries path with
        | Ok entries -> Ok ({ Trace_export.entries; dropped = 0 }, None, None)
        | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
  in
  match recorded with
  | Error msg ->
      Format.eprintf "rthv_trace: %s@." msg;
      1
  | Ok ({ Trace_export.entries; dropped }, partition_names, line_partition)
    -> (
      let total = List.length entries in
      let entries =
        apply_filters ~partition ~from_us ~to_us ~line_partition entries
      in
      count_trace_events registry entries;
      let trace = Trace_export.trace_of_entries ~dropped entries in
      let fail = ref None in
      (* --to-store always writes the binary store; the -o export then only
         runs when it targets a real file, so a bare --to-store does not
         spray an unwanted JSON document over stdout. *)
      Option.iter
        (fun path -> ignore (Trace_store.write_entries path entries : int))
        to_store;
      (if to_store = None || out <> "-" then
         match format with
         | Chrome ->
             write_output ~out (fun () ->
                 Trace_export.chrome_string ?partition_names trace
                 ^ "\n")
         | Jsonl ->
             write_output ~out (fun () -> Trace_export.jsonl_string trace)
         | Vcd -> write_output ~out (fun () -> Vcd_export.to_string trace)
         | Store ->
             if out = "-" then
               fail :=
                 Some
                   "--format store is binary; pass -o FILE (or use \
                    --to-store FILE)"
             else ignore (Trace_store.write_entries out entries : int));
      match !fail with
      | Some msg ->
          Format.eprintf "rthv_trace: %s@." msg;
          1
      | None ->
          (* Keep the export stream clean: the summary shares stdout only
             when the export went to a file. *)
          let export_to_stdout = to_store = None && out = "-" in
          let ppf =
            if export_to_stdout then Format.err_formatter
            else Format.std_formatter
          in
          Option.iter
            (fun path ->
              Format.fprintf ppf
                "wrote %d event(s) to store %s (%d before filtering)@."
                (List.length entries) path total)
            to_store;
          if out <> "-" then
            Format.fprintf ppf
              "wrote %d event(s) to %s (%d before filtering)@."
              (List.length entries) out total;
          print_summary ppf metrics registry;
          Format.pp_print_flush ppf ();
          0)

open Cmdliner

let source =
  let scenario =
    Arg.(
      value
      & opt (some string) None
      & info [ "s"; "scenario" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Simulate a named scenario (%s) with a trace attached."
               (String.concat ", " (List.map fst Scenarios.all))))
  in
  let from_jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "from-jsonl" ] ~docv:"FILE"
          ~doc:
            "Re-export a previously recorded JSONL trace instead of \
             simulating.")
  in
  let from_store =
    Arg.(
      value
      & opt (some string) None
      & info [ "from-store" ] ~docv:"FILE"
          ~doc:
            "Re-export a previously recorded binary trace store \
             (rthv-tracestore/1) instead of simulating.")
  in
  let combine scenario from_jsonl from_store =
    match (scenario, from_jsonl, from_store) with
    | Some _, Some _, _ | Some _, _, Some _ | _, Some _, Some _ ->
        `Error
          ( true,
            "--scenario, --from-jsonl and --from-store are mutually \
             exclusive" )
    | None, Some path, None -> `Ok (From_jsonl path)
    | None, None, Some path -> `Ok (From_store path)
    | Some name, None, None -> `Ok (Scenario name)
    | None, None, None -> `Ok (Scenario "quickstart")
  in
  Term.(ret (const combine $ scenario $ from_jsonl $ from_store))

let format =
  Arg.(
    value
    & opt
        (enum
           [
             ("chrome", Chrome);
             ("jsonl", Jsonl);
             ("vcd", Vcd);
             ("store", Store);
           ])
        Chrome
    & info [ "format"; "f" ] ~docv:"FMT"
        ~doc:
          "Export format: $(b,chrome) (Trace Event JSON for \
           Perfetto/chrome://tracing), $(b,jsonl) (one event per line), \
           $(b,vcd) (GTKWave waveform) or $(b,store) (binary \
           rthv-tracestore/1 columnar store; requires $(b,-o FILE)).")

let to_store =
  Arg.(
    value
    & opt (some string) None
    & info [ "to-store" ] ~docv:"FILE"
        ~doc:
          "Additionally write the (filtered) events as a binary \
           rthv-tracestore/1 store — the input of $(b,rthv_trace query).  \
           When $(b,-o) is left at stdout the regular export is skipped.")

let out =
  Arg.(
    value & opt string "-"
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Output file; $(b,-) writes the export to stdout (default).")

let partition =
  Arg.(
    value
    & opt (some int) None
    & info [ "partition"; "p" ] ~docv:"IDX"
        ~doc:
          "Keep only events attributable to this partition (slot \
           switches touching it, its interpositions, deferrals and \
           completions, and its sources' IRQ activity).")

let from_us =
  Arg.(
    value
    & opt (some Cli_arg.us_or_zero) None
    & info [ "from-us" ] ~docv:"US" ~doc:"Drop events before this time.")

let to_us =
  Arg.(
    value
    & opt (some Cli_arg.us_or_zero) None
    & info [ "to-us" ] ~docv:"US" ~doc:"Drop events after this time.")

let metrics =
  Arg.(
    value
    & opt
        (enum
           [
             ("text", M_text);
             ("json", M_json);
             ("prometheus", M_prometheus);
             ("none", M_none);
           ])
        M_text
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Metrics summary rendering: $(b,text), $(b,json), \
           $(b,prometheus) or $(b,none).  Printed to stderr when the \
           export goes to stdout.")

let capacity =
  Arg.(
    value
    & opt Cli_arg.count (1 lsl 20)
    & info [ "capacity" ] ~docv:"N"
        ~doc:"Trace ring-buffer capacity when simulating.")

let jobs =
  Arg.(
    value
    & opt (some Cli_arg.count) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for any sharded sweeps (default: $(b,RTHV_JOBS) \
           or the machine's recommended domain count).  A single scenario \
           recording is one simulation and always runs on one domain; \
           $(b,profile --repeat) shards across domains.")

let flight_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dir" ] ~docv:"DIR"
        ~doc:
          "Enable the crash flight recorder: keep a bounded ring of recent \
           scheduling events per simulation and dump it as JSONL under \
           $(docv) on oracle violations, uncaught exceptions or \
           negative-headroom reports (equivalent to setting \
           $(b,RTHV_FLIGHT_DIR)).")

(* --- report: latency attribution against the analytic bounds ------------ *)

(* Bound minus measured worst case, per (source, class) series. *)
let headroom v = Option.map (fun b -> b -. v.Slo.sv_worst_us) v.Slo.sv_bound_us

let opt_us = function
  | Some v -> Printf.sprintf "%10.1f" v
  | None -> "         -"

let print_report_text scenario rows verdict_for =
  Format.printf "-- latency attribution: scenario %s --@." scenario;
  Format.printf "%-16s %-12s %7s %10s %10s %10s %10s %10s@." "source" "class"
    "count" "p50us" "p99us" "maxus" "boundus" "headroom";
  List.iter
    (fun (r : Attribution.row) ->
      let v = verdict_for r.Attribution.r_source r.Attribution.r_class in
      let bound = Option.bind v (fun v -> v.Slo.sv_bound_us) in
      let s = r.Attribution.r_latency in
      Format.printf "%-16s %-12s %7d %10.1f %10.1f %10.1f %s %s@."
        r.Attribution.r_source
        (Irq_fold.class_name r.Attribution.r_class)
        r.Attribution.r_count s.Attribution.st_p50
        s.Attribution.st_p99 s.Attribution.st_max (opt_us bound)
        (opt_us (Option.bind v headroom)))
    rows;
  Format.printf "@.per-component waterfall (mean us per IRQ):@.";
  List.iter
    (fun (r : Attribution.row) ->
      Format.printf "%s/%s:@." r.Attribution.r_source
        (Irq_fold.class_name r.Attribution.r_class);
      let components = r.Attribution.r_components in
      let peak =
        List.fold_left
          (fun acc (_, (s : Attribution.stats)) ->
            Float.max acc s.Attribution.st_mean)
          0. components
      in
      List.iter
        (fun (name, (s : Attribution.stats)) ->
          let mean = s.Attribution.st_mean in
          let width =
            if peak <= 0. then 0
            else int_of_float (Float.round (40. *. mean /. peak))
          in
          Format.printf "  %-16s %10.2f |%s@." name mean (String.make width '#'))
        components)
    rows

let stats_json (s : Attribution.stats) =
  Obs.Json.Obj
    [
      ("p50_us", Obs.Json.Float s.Attribution.st_p50);
      ("p99_us", Obs.Json.Float s.Attribution.st_p99);
      ("max_us", Obs.Json.Float s.Attribution.st_max);
      ("mean_us", Obs.Json.Float s.Attribution.st_mean);
    ]

let print_report_json scenario rows verdict_for =
  let opt = function Some v -> Obs.Json.Float v | None -> Obs.Json.Null in
  let row_json (r : Attribution.row) =
    let v = verdict_for r.Attribution.r_source r.Attribution.r_class in
    Obs.Json.Obj
      [
        ("source", Obs.Json.String r.Attribution.r_source);
        ("class", Obs.Json.String (Irq_fold.class_name r.Attribution.r_class));
        ("count", Obs.Json.Int r.Attribution.r_count);
        ("latency", stats_json r.Attribution.r_latency);
        ( "components",
          Obs.Json.Obj
            (List.map
               (fun (name, s) -> (name, stats_json s))
               r.Attribution.r_components) );
        ("bound_us", opt (Option.bind v (fun v -> v.Slo.sv_bound_us)));
        ("headroom_us", opt (Option.bind v headroom));
      ]
  in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("scenario", Obs.Json.String scenario);
            ("rows", Obs.Json.List (List.map row_json rows));
          ]))

let report_main flight_dir scenario capacity json =
  Option.iter
    (fun dir -> Rthv_core.Flight_recorder.enable ~dir ())
    flight_dir;
  match Scenarios.find scenario with
  | None ->
      Format.eprintf "rthv_trace report: unknown scenario %S (available: %s)@."
        scenario
        (String.concat ", " (List.map fst Scenarios.all));
      1
  | Some build ->
      let config = build () in
      let attr = Attribution.create () in
      let slo = Slo.create config in
      let trace = Hyp_trace.create ~capacity () in
      Irq_fold.attach ~config trace (fun sp ->
          Attribution.record attr sp;
          Slo.span slo sp);
      Hyp_sim.run (Hyp_sim.create ~trace config);
      let verdicts = Slo.verdicts slo in
      let verdict_for source cls =
        List.find_opt
          (fun v -> v.Slo.sv_source = source && v.Slo.sv_class = cls)
          verdicts
      in
      let rows = Attribution.rows attr in
      if json then print_report_json scenario rows verdict_for
      else print_report_text scenario rows verdict_for;
      (* Non-negative headroom is the acceptance criterion: a measured
         worst case beyond its analytic bound is an analysis or simulator
         bug, so the report doubles as a check. *)
      let negative =
        List.filter
          (fun v ->
            match headroom v with Some h -> h < 0. | None -> false)
          verdicts
      in
      if negative <> [] then begin
        Format.eprintf
          "rthv_trace report: measured worst case exceeds the analytic \
           bound@.";
        (* Post-mortem: dump the scheduling-event ring of the offending run
           so the tail leading up to the excess latency can be replayed
           through --from-jsonl. *)
        let detail =
          String.concat ","
            (List.map
               (fun v ->
                 Printf.sprintf "%s/%s" v.Slo.sv_source
                   (Irq_fold.class_name v.Slo.sv_class))
               negative)
        in
        (match
           Rthv_core.Flight_recorder.dump ~reason:"negative_headroom" ~detail
             ()
         with
        | Some path ->
            Format.eprintf "rthv_trace report: flight ring dumped to %s@."
              path
        | None -> ());
        1
      end
      else 0

let report_scenario =
  Arg.(
    value & opt string "quickstart"
    & info [ "s"; "scenario" ] ~docv:"NAME"
        ~doc:"Scenario to simulate and attribute.")

let report_json =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit the report as JSON instead of the text table.")

let report_cmd =
  let doc =
    "simulate a scenario and decompose every IRQ's latency into causal \
     components, comparing measured worst cases against the paper's \
     analytic bounds"
  in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(
      const report_main $ flight_dir $ report_scenario $ capacity
      $ report_json)

(* --- profile: hierarchical phase profile of a scenario run --------------- *)

type profile_format = P_text | P_json | P_chrome

let profile_main jobs scenario repeat format out =
  Option.iter Rthv_par.Par.set_default_jobs jobs;
  if repeat < 1 then begin
    Format.eprintf "rthv_trace profile: --repeat must be >= 1@.";
    1
  end
  else
    match Scenarios.find scenario with
    | None ->
        Format.eprintf
          "rthv_trace profile: unknown scenario %S (available: %s)@." scenario
          (String.concat ", " (List.map fst Scenarios.all));
        1
    | Some build ->
        let profiler = Obs.Prof.create () in
        (* Every run — including a single one — goes through the sweep
           engine's ?profile plumbing: per-task profiles are absorbed in
           task-index order, so the aggregate is byte-identical for any
           --jobs value. *)
        ignore
          (Rthv_par.Par.init ~profile:profiler repeat (fun _ ->
               Hyp_sim.run (Hyp_sim.create (build ())))
            : unit list);
        write_output ~out (fun () ->
            match format with
            | P_text -> Format.asprintf "%a" Obs.Prof.pp_table profiler
            | P_json ->
                Obs.Json.to_string (Obs.Prof.to_json profiler) ^ "\n"
            | P_chrome ->
                Obs.Json.to_string (Obs.Prof.to_chrome profiler) ^ "\n");
        if out <> "-" then
          Format.printf "wrote phase profile of %d run(s) to %s@." repeat out;
        0

let profile_scenario =
  Arg.(
    value & opt string "quickstart"
    & info [ "s"; "scenario" ] ~docv:"NAME"
        ~doc:"Scenario to simulate under the profiler.")

let profile_repeat =
  Arg.(
    value & opt int 1
    & info [ "repeat"; "r" ] ~docv:"N"
        ~doc:
          "Run the scenario N times (sharded across $(b,--jobs) domains) \
           and merge the per-run profiles deterministically.")

let profile_format =
  Arg.(
    value
    & opt
        (enum [ ("text", P_text); ("json", P_json); ("chrome", P_chrome) ])
        P_text
    & info [ "format"; "f" ] ~docv:"FMT"
        ~doc:
          "Profile rendering: $(b,text) (hot-phase table plus allocation \
           waterfall), $(b,json) (rthv-profile/1 document) or $(b,chrome) \
           (Trace Event JSON of the aggregate tree for Perfetto).")

let profile_cmd =
  let doc =
    "simulate a scenario under the hierarchical phase profiler and print \
     where simulated wall-clock and minor-heap allocation went"
  in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(
      const profile_main $ jobs $ profile_scenario $ profile_repeat
      $ profile_format $ out)

(* --- query: streaming aggregation over a binary trace store -------------- *)

let parse_kinds = function
  | None -> Ok None
  | Some spec ->
      let names =
        String.split_on_char ',' spec
        |> List.map String.trim
        |> List.filter (fun n -> n <> "")
      in
      let rec conv acc = function
        | [] -> Ok (Some (List.rev acc))
        | n :: tl -> (
            match Hyp_trace.kind_of_name n with
            | Some k -> conv (k :: acc) tl
            | None ->
                Error
                  (Printf.sprintf "unknown event kind %S (known: %s)" n
                     (String.concat ", " Hyp_trace.kind_names)))
      in
      conv [] names

let scenario_config = function
  | None -> Ok None
  | Some name -> (
      match Scenarios.find name with
      | Some build -> Ok (Some (build ()))
      | None ->
          Error
            (Printf.sprintf "unknown scenario %S (available: %s)" name
               (String.concat ", " (List.map fst Scenarios.all))))

let query_main store agg group_by from_us to_us partition kinds scenario slo
    json =
  let ( let* ) r f = match r with Error e -> Error e | Ok v -> f v in
  let result =
    let* kinds = parse_kinds kinds in
    let* config = scenario_config scenario in
    let* () =
      if slo && agg <> Trace_query.Latency then
        Error "--slo needs latency samples; pass --agg latency"
      else if slo && config = None then
        Error "--slo needs the analytic bounds; pass --scenario NAME"
      else Ok ()
    in
    let filter =
      {
        Trace_store.from_time = Option.map Cycles.of_us from_us;
        to_time = Option.map Cycles.of_us to_us;
        kinds;
        partition;
      }
    in
    let slo_t =
      if slo then Option.map (fun config -> Slo.create config) config
      else None
    in
    let on_sample = Option.map Slo.span slo_t in
    let* q =
      match
        Trace_query.run ~filter ?config ?on_sample ~agg ~group_by store
      with
      | q -> Ok q
      | exception Invalid_argument msg -> Error msg
      | exception Obs.Tracestore.Corrupt msg ->
          Error (Printf.sprintf "%s: %s" store msg)
      | exception Sys_error msg -> Error msg
    in
    Ok (q, slo_t)
  in
  match result with
  | Error msg ->
      Format.eprintf "rthv_trace query: %s@." msg;
      1
  | Ok (q, slo_t) -> (
      if json then
        print_endline (Obs.Json.to_string (Trace_query.to_json ~store q))
      else Format.printf "%a@." Trace_query.pp q;
      match slo_t with
      | None -> 0
      | Some t ->
          if json then
            print_endline (Obs.Json.to_string (Slo.to_json t))
          else Format.printf "%a@." Slo.pp t;
          if Slo.ok t then 0
          else begin
            Format.eprintf
              "rthv_trace query: observed latency exceeds an analytic \
               bound@.";
            1
          end)

let query_store =
  Arg.(
    required
    & opt (some string) None
    & info [ "store" ] ~docv:"FILE"
        ~doc:"The binary trace store (rthv-tracestore/1) to aggregate.")

let query_agg =
  Arg.(
    value
    & opt
        (enum
           [
             ("count", Trace_query.Count);
             ("rate", Trace_query.Rate);
             ("latency", Trace_query.Latency);
           ])
        Trace_query.Count
    & info [ "agg"; "a" ] ~docv:"AGG"
        ~doc:
          "Aggregation: $(b,count) (matching events), $(b,rate) (events \
           per second of matched span) or $(b,latency) (per-IRQ \
           activation-to-completion percentiles via the shared P2 \
           digests).")

let query_group_by =
  Arg.(
    value
    & opt
        (enum
           [
             ("none", Trace_query.By_none);
             ("partition", Trace_query.By_partition);
             ("kind", Trace_query.By_kind);
             ("class", Trace_query.By_class);
             ("source", Trace_query.By_source);
           ])
        Trace_query.By_none
    & info [ "group-by"; "g" ] ~docv:"KEY"
        ~doc:
          "Group rows by $(b,partition), $(b,kind) (count/rate), \
           $(b,class) or $(b,source) (latency); $(b,none) aggregates \
           everything into one row.")

let query_kinds =
  Arg.(
    value
    & opt (some string) None
    & info [ "kind"; "k" ] ~docv:"NAMES"
        ~doc:
          "Comma-separated event kinds to keep (JSONL $(b,ev) names, e.g. \
           $(b,irq_raised,monitor_decision)); ignored by the latency \
           aggregation, which always scans its classification set.")

let query_scenario =
  Arg.(
    value
    & opt (some string) None
    & info [ "s"; "scenario" ] ~docv:"NAME"
        ~doc:
          "Scenario the store was recorded from: supplies the line-to-\
           partition and line-to-source maps (names instead of \
           $(b,line<N>)) and, with $(b,--slo), the analytic latency \
           bounds.")

let query_slo =
  Arg.(
    value & flag
    & info [ "slo" ]
        ~doc:
          "Stream every latency sample through the SLO gauges \
           (observed-vs-bound burn, per source x class) and exit non-zero \
           if any sample exceeded its equations-(11)/(12)/(16) bound.  \
           Requires $(b,--agg latency) and $(b,--scenario).")

let query_json =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the rthv-query/1 document (and the rthv-slo/1 document \
           under $(b,--slo)) instead of text tables.")

let query_cmd =
  let doc =
    "aggregate a binary trace store in one streaming pass: counts, rates \
     or latency percentiles with block-index pushdown, optionally gated \
     by the analytic latency bounds"
  in
  Cmd.v
    (Cmd.info "query" ~doc)
    Term.(
      const query_main $ query_store $ query_agg $ query_group_by $ from_us
      $ to_us $ partition $ query_kinds $ query_scenario $ query_slo
      $ query_json)

let default_term =
  Term.(
    const main $ jobs $ flight_dir $ source $ format $ out $ to_store
    $ partition $ from_us $ to_us $ metrics $ capacity)

let cmd =
  let doc =
    "record hypervisor simulation timelines and export them as Chrome \
     Trace JSON, JSONL, VCD or a binary trace store, with a metrics \
     summary and a streaming query engine"
  in
  Cmd.group ~default:default_term
    (Cmd.info "rthv_trace" ~doc)
    [ report_cmd; profile_cmd; query_cmd ]

let () = exit (Cmd.eval' cmd)
