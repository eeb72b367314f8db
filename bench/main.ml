(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6 and Appendix A), plus ablations over the design
   choices called out in DESIGN.md, Bechamel micro-benchmarks of the hot
   paths, and a wall-clock comparison of the sequential vs sharded sweep
   engine.

   Usage:  dune exec bench/main.exe [-- section ... [options]]
   Sections: fig3 fig6a fig6b fig6c fig7 overhead analysis ablation multi
   robustness micro profile stream sweep all (default: all).
   Options:
     --jobs N     worker domains for the sweep engine (default: RTHV_JOBS
                  or the machine's recommended domain count)
     --json FILE  write machine-readable results of the micro and sweep
                  sections (schema rthv-bench/1) for trend tracking *)

module Cycles = Rthv_engine.Cycles
module Config = Rthv_core.Config
module Hyp_sim = Rthv_core.Hyp_sim
module Irq_record = Rthv_core.Irq_record
module Monitor = Rthv_core.Monitor
module DF = Rthv_analysis.Distance_fn
module BW = Rthv_analysis.Busy_window
module AC = Rthv_analysis.Arrival_curve
module Gen = Rthv_workload.Gen
module Summary = Rthv_stats.Summary
module Fig6 = Rthv_experiments.Fig6
module Fig7 = Rthv_experiments.Fig7
module Overhead = Rthv_experiments.Overhead
module Analysis_tables = Rthv_experiments.Analysis_tables
module Params = Rthv_experiments.Params
module Par = Rthv_par.Par
module Json = Rthv_obs.Json

let ppf = Format.std_formatter

(* Machine-readable results (written by --json): micro rows plus sweep
   timings, accumulated by whichever sections run. *)
let json_micro : Json.t list ref = ref []
let json_sweep : (string * Json.t) list ref = ref []
let json_profile : Json.t list ref = ref []

let banner title =
  Format.fprintf ppf "@.%s@.%s@." title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Figure 6: latency histograms, 15000 IRQs                            *)
(* ------------------------------------------------------------------ *)

let fig6 scenario () =
  banner
    (Printf.sprintf "%s  [paper: Figure 6]" (Fig6.scenario_name scenario));
  let result = Fig6.run scenario in
  Fig6.print ppf result

(* ------------------------------------------------------------------ *)
(* Figure 7: ECU trace with self-learning monitor                      *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  banner "Self-learning monitor on the ECU trace  [paper: Figure 7]";
  let results = Fig7.run_all () in
  List.iter (Fig7.print ppf) results;
  Format.fprintf ppf "@.Average IRQ latency over the event index (Figure 7):@.";
  let glyphs = [ 'a'; 'b'; 'c'; 'd' ] in
  let plots =
    List.map2
      (fun r glyph ->
        Rthv_stats.Ascii_plot.series ~label:r.Fig7.label ~glyph
          (List.map (fun (i, v) -> (float_of_int i, v)) r.Fig7.series))
      results glyphs
  in
  Rthv_stats.Ascii_plot.render ~x_label:"IRQ event index"
    ~y_label:"avg latency (us, 500-event window)" ppf plots;
  Format.fprintf ppf "@.Running-average latency series (us):@.";
  Fig7.print_series ppf results;
  Format.fprintf ppf
    "@.Paper's run-phase averages for comparison: a) ~120us, b) ~300us, c) \
     ~900us, d) ~1600us.@."

(* ------------------------------------------------------------------ *)
(* Section 6.2: overhead table                                         *)
(* ------------------------------------------------------------------ *)

let overhead () =
  banner "Memory and runtime overhead  [paper: Section 6.2]";
  Overhead.print ppf (Overhead.run ());
  Format.fprintf ppf
    "Note: the paper reports ~10%% added context switches for its (unstated) \
     C_BH;@.with C_BH = 50us the interposition rate per slot switch is \
     higher here — the@.increase scales linearly with U_IRQ, as the per-load \
     rows show.@."

(* ------------------------------------------------------------------ *)
(* Analysis tables: equations (11)-(16) vs simulation                  *)
(* ------------------------------------------------------------------ *)

let analysis () =
  banner "Worst-case latency analysis vs simulation  [paper: Sections 4-5]";
  Analysis_tables.print ppf (Analysis_tables.compute_all ())

(* ------------------------------------------------------------------ *)
(* Ablations over design choices (DESIGN.md section 5)                 *)
(* ------------------------------------------------------------------ *)

let ablation () =
  banner "Ablations (conforming arrivals, U_IRQ = 10%)";
  let module Ablation = Rthv_experiments.Ablation in
  let d_min = Params.mean_for_load 0.10 in
  let section title variants =
    Format.fprintf ppf "%s:@." title;
    Ablation.print ppf (Ablation.run ~d_min variants)
  in
  section "interposed handling semantics"
    (Ablation.boundary_variants ~d_min);
  section "context-switch cost sensitivity (monitored)"
    (Ablation.ctx_cost_variants ~d_min [ 0.0; 0.5; 1.0; 2.0 ]);
  section "monitor granularity (same arrivals, l-entry envelope)"
    (Ablation.monitor_depth_variants ~d_min [ 1; 3; 5 ]);
  Format.fprintf ppf
    "shaping mechanism on bursty arrivals (equal long-term rate):@.";
  Ablation.print ppf (Ablation.shaper_comparison ~d_min ());
  (* Sensitivity: what baseline TDMA cycle would match interposition's
     latency, and what switch rate that implies (Section 1's motivation). *)
  let module Sensitivity = Rthv_analysis.Sensitivity in
  let costs = Rthv_analysis.Irq_latency.costs_of_platform Params.platform in
  let query =
    Sensitivity.make
      ~tdma:(Rthv_core.Tdma.interference Params.tdma ~partition:1)
      ~costs ~c_th:(Cycles.of_us Params.c_th_us) ()
  in
  let c_bh = Cycles.of_us Params.c_bh_us in
  (match Sensitivity.interposed_latency query ~c_bh ~d_min with
  | None -> ()
  | Some budget -> (
      Format.fprintf ppf
        "baseline-TDMA equivalent of interposition (latency budget %a):@."
        Cycles.pp budget;
      match
        Sensitivity.baseline_cycle_for_latency query ~c_bh ~d_min
          ~slot_fraction:(6. /. 14.) ~budget
      with
      | None -> Format.fprintf ppf "  no TDMA cycle achieves it@."
      | Some cycle ->
          Format.fprintf ppf
            "  requires T_TDMA <= %a, i.e. %.0f partition switches/second \
             (vs %.0f/s at 14ms)@."
            Cycles.pp cycle
            (Sensitivity.switch_rate_per_second ~cycle ~partitions:3)
            (Sensitivity.switch_rate_per_second ~cycle:(Cycles.of_us 14_000)
               ~partitions:3)))

(* ------------------------------------------------------------------ *)
(* Figure 3 quantified: latency over arrival phase                     *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  banner "Latency profile over the TDMA cycle  [paper: Figure 3/5 illustration]";
  let results =
    [
      Rthv_experiments.Phase_sweep.run ~monitored:false ();
      Rthv_experiments.Phase_sweep.run ~monitored:true ();
    ]
  in
  Rthv_experiments.Phase_sweep.print ppf results

(* ------------------------------------------------------------------ *)
(* Multi-source scalability (beyond the paper)                         *)
(* ------------------------------------------------------------------ *)

let multi () =
  banner "Multi-source scalability (constant 10% total interposed load)";
  let rows = Rthv_experiments.Multi_source.sweep [ 1; 2; 4; 8 ] in
  Rthv_experiments.Multi_source.print ppf rows

let robustness () =
  banner "Seed robustness of the Figure-6 averages";
  Rthv_experiments.Robustness.print ppf
    (Rthv_experiments.Robustness.run_all ())

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

(* Each micro-benchmark is a raw named closure.  Bechamel times them; the
   allocation column is measured directly (below) because the OLS
   minor-allocated estimate carries run-to-run intercept noise of hundreds
   of words on identical code, which no tight regression gate survives. *)
let micro_bodies () : (string * (unit -> unit)) list =
  let monitor_check =
    ( "monitor.check (l=5)",
      fun () ->
           let m =
             Monitor.fixed (DF.of_entries [| 100; 200; 300; 400; 500 |])
           in
           for i = 0 to 99 do
             if Monitor.check m (i * 600) then Monitor.admit m (i * 600)
           done)
  in
  (* Steady-state monitor benches on a preallocated monitor: these are the
     per-IRQ hot-path costs (the create+100-admits bench above includes
     construction), and their minor_allocated estimate is the
     allocation-free claim checked in CI. *)
  let steady_monitor =
    Monitor.fixed (DF.of_entries [| 100; 200; 300; 400; 500 |])
  in
  let steady_ts = ref 0 in
  let monitor_admit_steady =
    ( "monitor admit+check steady (l=5)",
      fun () ->
           steady_ts := !steady_ts + 600;
           if Monitor.check steady_monitor !steady_ts then
             Monitor.admit steady_monitor !steady_ts)
  in
  let conforms_ts = ref 0 in
  let monitor_conforms =
    ( "monitor.conforms read-only (l=5)",
      fun () ->
           conforms_ts := !conforms_ts + 600;
           ignore (Monitor.conforms steady_monitor !conforms_ts))
  in
  let busy_window =
    let curve = AC.sporadic ~d_min_us:1544 in
    ( "busy-window fixed point (eq. 11)",
      fun () ->
           let tdma =
             Rthv_analysis.Tdma_interference.make ~cycle:(Cycles.of_us 14_000)
               ~slot:(Cycles.of_us 6_000)
           in
           let interference dt =
             Rthv_analysis.Tdma_interference.interference tdma dt
             + (AC.eta_plus curve dt * Cycles.of_us 5)
           in
           ignore
             (BW.response_time ~wcet:(Cycles.of_us 50)
                ~delta:(AC.delta_min curve) ~interference ()))
  in
  let learner =
    ( "delta-learner observe x1000 (Alg. 1)",
      fun () ->
           let l = Rthv_core.Delta_learner.create ~l:5 in
           for i = 0 to 999 do
             Rthv_core.Delta_learner.observe l (i * 321)
           done)
  in
  let interarrivals =
    Gen.exponential ~seed:1 ~mean:(Cycles.of_us 1544) ~count:200
  in
  let shaping = Config.Fixed_monitor (DF.d_min (Cycles.of_us 1544)) in
  let sim_throughput =
    ( "hypervisor sim, 200 IRQs (monitored)",
      fun () ->
           let sim = Hyp_sim.create (Params.config ~interarrivals ~shaping) in
           Hyp_sim.run sim)
  in
  (* One full Figure-6-sized run: the unit of work the sweep engine
     distributes, so its wall-clock anchors the sweep speedup numbers. *)
  let interarrivals_15k =
    Gen.exponential ~seed:1 ~mean:(Cycles.of_us 1544) ~count:15_000
  in
  let sim_15k =
    ( "hypervisor sim, 15000 IRQs (monitored)",
      fun () ->
           let sim =
             Hyp_sim.create
               (Params.config ~interarrivals:interarrivals_15k ~shaping)
           in
           Hyp_sim.run sim)
  in
  (* The price of live metrics: the same simulation created under an
     installed registry, so its trace is folded into the registry's
     counters and latency summaries. *)
  let sim_metrics =
    ( "hypervisor sim, 200 IRQs (metrics)",
      fun () ->
           Rthv_obs.Registry.with_installed (Rthv_obs.Registry.create ())
             (fun () ->
               let sim =
                 Hyp_sim.create (Params.config ~interarrivals ~shaping)
               in
               Hyp_sim.run sim))
  in
  (* Batched trace capture: the same simulation with a bounded ring whose
     row hook streams every event row into the columnar store writer
     (Trace_store), pricing the array-store + amortized-block-encode path
     against the metrics fold.  Ring,
     writer and (unlinked) temp file are hoisted so the row measures the
     steady state, not construction. *)
  let sim_tracestore =
    let path = Filename.temp_file "rthv_bench" ".rts" in
    let writer = Rthv_core.Trace_store.Writer.create path in
    (try Sys.remove path with Sys_error _ -> ());
    let ring = Rthv_core.Hyp_trace.create ~capacity:4096 () in
    Rthv_core.Hyp_trace.set_row_spill ring
      (Rthv_core.Trace_store.Writer.add_row writer);
    ( "hypervisor sim, 200 IRQs (tracestore sink)",
      fun () ->
           let sim =
             Hyp_sim.create ~trace:ring (Params.config ~interarrivals ~shaping)
           in
           Hyp_sim.run sim)
  in
  (* One config of the bench/e2e fleet_certify corpus (the seed-42 fleet,
     guest tasks stripped), certified and its artifact rechecked: the JSON
     emitter and parser carry most of this row. *)
  let certify =
    let name, c = List.nth (Rthv_check.Fleet.gen_batch ~seed:42 ~count:4) 3 in
    let config =
      {
        c with
        Config.partitions =
          List.map (fun p -> { p with Config.tasks = [] }) c.Config.partitions;
      }
    in
    ( "certify build+recheck (fleet cfg-0003)",
      fun () ->
        match Rthv_check.Certify.build_string ~scenario:name config with
        | Ok artifact -> ignore (Rthv_check.Certify.recheck_string artifact)
        | Error e -> failwith e )
  in
  (* The interval analysis's densest admitted schedule for a token bucket,
     cut at its 4096-event cap: each arrival folds the bucket's meter once
     (the list replay it replaced refolded the whole history per arrival). *)
  let schedule =
    let policy = Rthv_analysis.Bound.Bucketed { capacity = 2; refill = 400 } in
    ( "adversarial_schedule, 4096-event token bucket",
      fun () ->
        ignore
          (Rthv_check.Absint.adversarial_schedule ~policy ~footprint:100
             ~horizon:(Cycles.of_ms 100)
            : Cycles.t list) )
  in
  [
    monitor_check;
    monitor_admit_steady;
    monitor_conforms;
    busy_window;
    learner;
    sim_throughput;
    sim_15k;
    sim_metrics;
    sim_tracestore;
    certify;
    schedule;
  ]

let micro_tests () =
  let open Bechamel in
  List.map
    (fun (name, fn) -> Test.make ~name (Staged.stage fn))
    (micro_bodies ())

(* Exact per-run minor allocation: warm the closure, then average the
   [Gc.minor_words] delta over a fixed number of runs.  The closures are
   deterministic, so this is reproducible to the word across machines —
   unlike the bechamel OLS estimate, whose intercept noise on identical
   code exceeds any slack a regression gate could reasonably grant.
   A fresh set of bodies (fresh warm state) keeps the measurement
   independent of how many iterations the timing pass happened to run. *)
let direct_minor_words () =
  List.map
    (fun (name, fn) ->
      for _ = 1 to 3 do fn () done;
      let runs = 10 in
      let before = Gc.minor_words () in
      for _ = 1 to runs do fn () done;
      let after = Gc.minor_words () in
      ("rthv " ^ name, (after -. before) /. float_of_int runs))
    (micro_bodies ())

let micro () =
  banner "Bechamel micro-benchmarks";
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"rthv" ~fmt:"%s %s" (micro_tests ()))
  in
  let times = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let allocs = direct_minor_words () in
  let estimate tbl name =
    match Hashtbl.find_opt tbl name with
    | None -> None
    | Some result -> (
        match Analyze.OLS.estimates result with
        | Some [ per_run ] -> Some per_run
        | Some _ | None -> None)
  in
  let rows = Hashtbl.fold (fun name _ acc -> name :: acc) times [] in
  Format.fprintf ppf "  %-48s %12s  %s@." "" "ns/run" "minor words/run";
  List.iter
    (fun name ->
      match (estimate times name, List.assoc_opt name allocs) with
      | Some ns, words ->
          let words = Option.value words ~default:Float.nan in
          Format.fprintf ppf "  %-48s %12.1f  %15.1f@." name ns words;
          json_micro :=
            Json.Obj
              [
                ("name", Json.String name);
                ("ns_per_run", Json.Float ns);
                ("minor_words_per_run", Json.Float words);
              ]
            :: !json_micro
      | None, _ -> Format.fprintf ppf "  %-48s (no estimate)@." name)
    (List.sort compare rows);
  (* Derived sink-overhead ratios: how much a 200-IRQ run slows down under
     each instrumentation path, relative to the uninstrumented monitored
     run.  The ns column is the time ratio, the words column the
     allocation ratio — both dimensionless, both gated by diff.exe like
     any other row. *)
  let lookup name = (estimate times name, List.assoc_opt name allocs) in
  let ratio_row label num den =
    match (lookup num, lookup den) with
    | (Some n_ns, Some n_w), (Some d_ns, Some d_w) when d_ns > 0. && d_w > 0.
      ->
        let ns = n_ns /. d_ns and words = n_w /. d_w in
        Format.fprintf ppf "  %-48s %12.2f  %15.2f@." label ns words;
        json_micro :=
          Json.Obj
            [
              ("name", Json.String label);
              ("ns_per_run", Json.Float ns);
              ("minor_words_per_run", Json.Float words);
            ]
          :: !json_micro
    | _ -> Format.fprintf ppf "  %-48s (no estimate)@." label
  in
  let monitored = "rthv hypervisor sim, 200 IRQs (monitored)" in
  ratio_row "rthv sink_overhead_ratio (metrics/monitored)"
    "rthv hypervisor sim, 200 IRQs (metrics)" monitored;
  ratio_row "rthv sink_overhead_ratio (tracestore/monitored)"
    "rthv hypervisor sim, 200 IRQs (tracestore sink)" monitored

(* ------------------------------------------------------------------ *)
(* Phase profile: where the 15000-IRQ simulation spends its time       *)
(* ------------------------------------------------------------------ *)

(* One Figure-6-sized monitored run under the hierarchical profiler: the
   per-phase wall-clock locates the hot loop's cost centres and the
   per-phase minor words are exactly reproducible (the simulation is
   deterministic and the profiler subtracts its own clock boxing), so
   bench/diff.exe can gate them per phase. *)
let profile_section () =
  banner "Phase profile (15000-IRQ monitored simulation)";
  let interarrivals =
    Gen.exponential ~seed:1 ~mean:(Cycles.of_us 1544) ~count:15_000
  in
  let shaping = Config.Fixed_monitor (DF.d_min (Cycles.of_us 1544)) in
  let prof = Rthv_obs.Prof.create () in
  Rthv_obs.Prof.with_profiler prof (fun () ->
      let sim = Hyp_sim.create (Params.config ~interarrivals ~shaping) in
      Hyp_sim.run sim);
  Format.fprintf ppf "%a" Rthv_obs.Prof.pp_table prof;
  json_profile :=
    List.rev_append
      (List.rev_map
         (fun (r : Rthv_obs.Prof.row) ->
           Json.Obj
             [
               ("path", Json.String r.Rthv_obs.Prof.r_path);
               ("calls", Json.Int r.Rthv_obs.Prof.r_calls);
               ("total_ns", Json.Float r.Rthv_obs.Prof.r_total_ns);
               ("self_ns", Json.Float r.Rthv_obs.Prof.r_self_ns);
               ("words", Json.Float r.Rthv_obs.Prof.r_words);
               ("self_words", Json.Float r.Rthv_obs.Prof.r_self_words);
             ])
         (Rthv_obs.Prof.rows prof))
      !json_profile

(* ------------------------------------------------------------------ *)
(* Streaming: 15k IRQs with records retained, 1M IRQs without          *)
(* ------------------------------------------------------------------ *)

(* Wall-clock and exact per-run allocation of the Figure-6-sized run with
   records retained, plus a 1M-IRQ streaming run (retain=false: no record
   accumulation) that must complete within a small wall-clock budget.  The
   same workload generator and shaping as the bechamel 15k row, so the
   numbers anchor against the micro section.  RTHV_1M_BUDGET_S (seconds,
   float) turns the 1M row into a hard gate for CI smoke runs. *)
let per_run runs f =
  f ();
  (* warm *)
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to runs do f () done;
  let dt = Unix.gettimeofday () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  (dt /. float_of_int runs *. 1e9, dw /. float_of_int runs)

let json_stream : (string * Json.t) list ref = ref []

let stream () =
  banner "Streaming: 15k IRQs retained, 1M IRQs streaming";
  let interarrivals_15k =
    Gen.exponential ~seed:1 ~mean:(Cycles.of_us 1544) ~count:15_000
  in
  let shaping = Config.Fixed_monitor (DF.d_min (Cycles.of_us 1544)) in
  let config_15k = Params.config ~interarrivals:interarrivals_15k ~shaping in
  let ns_15k, words_15k =
    per_run 20 (fun () -> Hyp_sim.run (Hyp_sim.create config_15k))
  in
  Format.fprintf ppf "  %-40s %12s  %s@." "" "ns/run" "minor words/run";
  Format.fprintf ppf "  %-40s %12.0f  %15.0f@." "15k IRQs, retained" ns_15k
    words_15k;
  (* 1M IRQs, streaming: the scale target.  retain=false drops per-IRQ
     record retention (stats and traces are unaffected), so the run is
     O(live events) in memory however long the workload. *)
  let interarrivals_1m =
    Gen.exponential ~seed:1 ~mean:(Cycles.of_us 1544) ~count:1_000_000
  in
  let config_1m = Params.config ~interarrivals:interarrivals_1m ~shaping in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let sim = Hyp_sim.create ~retain:false config_1m in
  Hyp_sim.run sim;
  let wall_s = Unix.gettimeofday () -. t0 in
  let words_1m = Gc.minor_words () -. w0 in
  let completed = (Hyp_sim.stats sim).Hyp_sim.completed_irqs in
  Format.fprintf ppf "  1M IRQs, streaming (retain=false): %.2fs wall \
                      (%.0f ns/IRQ, %d completed)@."
    wall_s
    (wall_s *. 1e9 /. float_of_int completed)
    completed;
  (match Sys.getenv_opt "RTHV_1M_BUDGET_S" with
  | Some budget -> (
      match float_of_string_opt budget with
      | Some b when wall_s > b ->
          Format.fprintf ppf
            "  ERROR: 1M-IRQ run took %.2fs, budget RTHV_1M_BUDGET_S=%.2fs@."
            wall_s b;
          exit 1
      | Some b -> Format.fprintf ppf "  within budget (%.2fs <= %.2fs)@." wall_s b
      | None -> ())
  | None -> ());
  json_stream :=
    [
      ( "rows",
        Json.List
          [
            Json.Obj
              [
                ("name", Json.String "15k retained");
                ("ns_per_run", Json.Float ns_15k);
                ("minor_words_per_run", Json.Float words_15k);
              ];
            Json.Obj
              [
                ("name", Json.String "1m streaming");
                ("ns_per_run", Json.Float (wall_s *. 1e9));
                ("minor_words_per_run", Json.Float words_1m);
              ];
          ] );
      ("wall_1m_s", Json.Float wall_s);
      ("completed_1m", Json.Int completed);
    ]

(* ------------------------------------------------------------------ *)
(* Sweep engine wall-clock: sequential vs sharded Figure-6 grid        *)
(* ------------------------------------------------------------------ *)

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let fig6_fingerprint results =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Format.asprintf "%a" Fig6.print r ^ Fig6.histogram_csv r))
    results;
  Buffer.contents buf

let sweep () =
  banner "Sweep engine: sequential vs sharded (Figure 6 grid, 9 runs)";
  let jobs = Par.default_jobs () in
  let pool = Par.create ~jobs () in
  let effective = Par.effective_jobs pool in
  let seq, seq_s = time (fun () -> Fig6.run_all ~pool:Par.sequential ()) in
  let par, par_s = time (fun () -> Fig6.run_all ~pool ()) in
  let identical = String.equal (fig6_fingerprint seq) (fig6_fingerprint par) in
  let speedup = if par_s > 0. then seq_s /. par_s else Float.nan in
  Format.fprintf ppf
    "  jobs=1: %.2fs   jobs=%d (effective %d): %.2fs   speedup: %.2fx   \
     byte-identical: %b@."
    seq_s jobs effective par_s speedup identical;
  if not identical then begin
    Format.fprintf ppf
      "  ERROR: parallel results differ from sequential results@.";
    exit 1
  end;
  if effective <= 1 then
    Format.fprintf ppf
      "  note: single schedulable core — pool runs the sequential path, \
       speedup is noise around 1.0x@."
  else if speedup < 1. then
    Format.fprintf ppf
      "  WARNING: parallel sweep slower than sequential (%.2fx)@." speedup;
  json_sweep :=
    ( "fig6",
      Json.Obj
        [
          ("jobs", Json.Int jobs);
          ("effective_jobs", Json.Int effective);
          ("seq_s", Json.Float seq_s);
          ("par_s", Json.Float par_s);
          ("speedup", Json.Float speedup);
          ("identical", Json.Bool identical);
        ] )
    :: !json_sweep

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("fig3", fig3);
    ("fig6a", fig6 Fig6.Unmonitored);
    ("fig6b", fig6 Fig6.Monitored);
    ("fig6c", fig6 Fig6.Monitored_conforming);
    ("fig7", fig7);
    ("overhead", overhead);
    ("analysis", analysis);
    ("ablation", ablation);
    ("multi", multi);
    ("robustness", robustness);
    ("micro", micro);
    ("profile", profile_section);
    ("stream", stream);
    ("sweep", sweep);
  ]

let usage () =
  Format.fprintf ppf
    "usage: bench [section ...] [--jobs N] [--json FILE]@.sections: %s all@."
    (String.concat " " (List.map fst sections));
  exit 1

let () =
  let json_file = ref None in
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            Par.set_default_jobs n;
            parse_args acc rest
        | _ ->
            Format.fprintf ppf "--jobs expects a positive integer, got %s@." n;
            exit 1)
    | [ "--jobs" ] | [ "--json" ] -> usage ()
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse_args acc rest
    | arg :: rest -> parse_args (arg :: acc) rest
  in
  let args = parse_args [] (List.tl (Array.to_list Sys.argv)) in
  let requested =
    match args with
    | _ :: _ when not (List.mem "all" args) -> args
    | _ -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Format.fprintf ppf "unknown section %s (available: %s)@." name
            (String.concat " " (List.map fst sections));
          exit 1)
    requested;
  match !json_file with
  | None -> ()
  | Some file ->
      let doc =
        Json.Obj
          [
            ("schema", Json.String "rthv-bench/1");
            ("jobs", Json.Int (Par.default_jobs ()));
            ("micro", Json.List (List.rev !json_micro));
            ("profile", Json.List (List.rev !json_profile));
            ("stream", Json.Obj !json_stream);
            ("sweep", Json.Obj (List.rev !json_sweep));
          ]
      in
      let oc = open_out file in
      output_string oc (Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      Format.fprintf ppf "@.wrote %s@." file
