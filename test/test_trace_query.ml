(* Streaming query engine: counts agree with the entry list, rates with the
   span, the latency classifier reproduces the simulator's attribution, and
   a hand-built store pins the rthv-query/1 golden output. *)

module Cycles = Rthv_engine.Cycles
module Config = Rthv_core.Config
module Hyp_sim = Rthv_core.Hyp_sim
module Hyp_trace = Rthv_core.Hyp_trace
module Store = Rthv_core.Trace_store
module Query = Rthv_core.Trace_query
module Json = Rthv_obs.Json
module DF = Rthv_analysis.Distance_fn

let us = Testutil.us

let scenario_config () =
  Config.make
    ~partitions:
      [
        Config.partition ~name:"ctl" ~slot_us:6_000 ();
        Config.partition ~name:"io" ~slot_us:6_000 ();
      ]
    ~sources:
      [
        Config.source ~name:"nic" ~line:0 ~subscriber:1 ~c_th_us:5 ~c_bh_us:50
          ~interarrivals:
            (Rthv_workload.Gen.exponential ~seed:7 ~mean:(us 1_000) ~count:150)
          ~shaping:(Config.Fixed_monitor (DF.d_min (us 500)))
          ();
      ]
    ()

let recorded = lazy (
  let trace = Hyp_trace.create () in
  let config = scenario_config () in
  let sim = Hyp_sim.create ~trace config in
  Hyp_sim.run sim;
  (Hyp_trace.to_list trace, Hyp_sim.stats sim))

let with_store f =
  let entries, stats = Lazy.force recorded in
  Testutil.with_temp (fun path ->
      ignore (Store.write_entries ~block_events:256 path entries : int);
      f path entries stats)

let test_count_matches_entries () =
  with_store (fun path entries _ ->
      let q = Query.run ~agg:Query.Count ~group_by:Query.By_kind path in
      Alcotest.(check int) "matched = entries" (List.length entries)
        q.Query.q_matched;
      let count_of key =
        match
          List.find_opt (fun g -> g.Query.g_key = key) q.Query.q_groups
        with
        | Some g -> g.Query.g_count
        | None -> 0
      in
      let expected kindname =
        List.length
          (List.filter
             (fun e ->
               Store.kind_name (Store.kind_of_event e.Hyp_trace.event)
               = kindname)
             entries)
      in
      List.iter
        (fun kindname ->
          Alcotest.(check int) ("count of " ^ kindname) (expected kindname)
            (count_of kindname))
        Store.kind_names)

let test_time_filter_count () =
  with_store (fun path entries _ ->
      let from_time = us 10_000 and to_time = us 60_000 in
      let filter =
        {
          Store.no_filter with
          from_time = Some from_time;
          to_time = Some to_time;
        }
      in
      let q = Query.run ~filter ~agg:Query.Count ~group_by:Query.By_none path in
      let expected =
        List.length
          (List.filter
             (fun e ->
               e.Hyp_trace.time >= from_time && e.Hyp_trace.time <= to_time)
             entries)
      in
      Alcotest.(check int) "windowed count" expected q.Query.q_matched)

let test_rate_span_matches_entries () =
  with_store (fun path entries _ ->
      let q = Query.run ~agg:Query.Rate ~group_by:Query.By_none path in
      let times = List.map (fun e -> e.Hyp_trace.time) entries in
      let lo = List.fold_left min max_int times
      and hi = List.fold_left max min_int times in
      Testutil.close ~eps:1e-9 "span = extent of entries"
        (Cycles.to_us (hi - lo))
        q.Query.q_span_us;
      Alcotest.(check int) "rate counts everything" (List.length entries)
        q.Query.q_matched)

(* The streaming classifier must agree with the simulator's own records:
   the class histogram of the store query equals Hyp_sim.stats. *)
let test_classifier_matches_simulator () =
  with_store (fun path _ stats ->
      let q = Query.run ~agg:Query.Latency ~group_by:Query.By_class path in
      let count key =
        match
          List.find_opt (fun g -> g.Query.g_key = key) q.Query.q_groups
        with
        | Some g -> g.Query.g_count
        | None -> 0
      in
      Alcotest.(check int) "completed" stats.Hyp_sim.completed_irqs
        q.Query.q_matched;
      Alcotest.(check int) "direct" stats.Hyp_sim.direct (count "direct");
      Alcotest.(check int) "interposed" stats.Hyp_sim.interposed
        (count "interposed");
      Alcotest.(check int) "delayed" stats.Hyp_sim.delayed (count "delayed");
      Alcotest.(check int) "no unknown" 0 (count "unknown"))

let test_latency_by_source_named () =
  with_store (fun path _ stats ->
      let q =
        Query.run ~config:(scenario_config ()) ~agg:Query.Latency
          ~group_by:Query.By_source path
      in
      match q.Query.q_groups with
      | [ g ] ->
          Alcotest.(check string) "source name" "nic" g.Query.g_key;
          Alcotest.(check int) "all samples" stats.Hyp_sim.completed_irqs
            g.Query.g_count
      | gs -> Alcotest.failf "expected one source group, got %d" (List.length gs))

let test_on_sample_streams_everything () =
  with_store (fun path _ stats ->
      let n = ref 0 in
      let worst = ref 0. in
      let on_sample (sp : Rthv_core.Irq_fold.span) =
        incr n;
        let latency_us = Rthv_core.Irq_fold.latency_us sp in
        if latency_us > !worst then worst := latency_us;
        Alcotest.(check int) "subscriber partition" 1 sp.partition
      in
      let q =
        Query.run ~on_sample ~agg:Query.Latency ~group_by:Query.By_none path
      in
      Alcotest.(check int) "every sample streamed" q.Query.q_matched !n;
      Alcotest.(check int) "matches simulator" stats.Hyp_sim.completed_irqs !n;
      Alcotest.(check bool) "latencies positive" true (!worst > 0.))

let test_group_by_mismatch_rejected () =
  with_store (fun path _ _ ->
      (match
         Query.run ~agg:Query.Count ~group_by:Query.By_class path
       with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "count by class accepted");
      match Query.run ~agg:Query.Latency ~group_by:Query.By_kind path with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "latency by kind accepted")

(* Golden: a hand-built four-event-per-instance store with one sample per
   class pins the rthv-query/1 document byte-for-byte. *)
let golden_entries =
  let e time event = { Hyp_trace.time; event } in
  [
    e 0 (Hyp_trace.Slot_switch { from_partition = 0; to_partition = 1 });
    e 200 (Hyp_trace.Irq_raised { irq = 0; line = 0 });
    e 400 (Hyp_trace.Top_handler_run { irq = 0; line = 0 });
    e 600 (Hyp_trace.Bottom_handler_done { irq = 0; partition = 1 });
    e 1_000 (Hyp_trace.Irq_raised { irq = 1; line = 0 });
    e 1_200 (Hyp_trace.Top_handler_run { irq = 1; line = 0 });
    e 1_400
      (Hyp_trace.Monitor_decision
         { irq = 1; line = 0; arrival = 1_000; verdict = `Admitted });
    e 2_000 (Hyp_trace.Bottom_handler_done { irq = 1; partition = 1 });
    e 2_200 (Hyp_trace.Slot_switch { from_partition = 1; to_partition = 0 });
    e 2_400 (Hyp_trace.Irq_raised { irq = 2; line = 0 });
    e 2_600 (Hyp_trace.Top_handler_run { irq = 2; line = 0 });
    e 3_000
      (Hyp_trace.Monitor_decision
         { irq = 2; line = 0; arrival = 2_400; verdict = `Denied });
    e 4_000 (Hyp_trace.Bottom_handler_done { irq = 2; partition = 1 });
  ]

let test_golden_query_json () =
  Testutil.with_temp (fun path ->
      ignore (Store.write_entries path golden_entries : int);
      let q = Query.run ~agg:Query.Latency ~group_by:Query.By_class path in
      let json = Json.to_string (Query.to_json ~store:"golden.rts" q) in
      let expected =
        "{\"schema\":\"rthv-query/1\",\"store\":\"golden.rts\",\
         \"aggregation\":\"latency\",\"group_by\":\"class\",\"blocks\":1,\
         \"blocks_scanned\":1,\"rows_scanned\":13,\"matched\":3,\
         \"span_us\":19.0,\"groups\":[{\"key\":\"delayed\",\"count\":1,\
         \"mean_us\":8.0,\"p50_us\":8.0,\"p95_us\":8.0,\"p99_us\":8.0,\
         \"p999_us\":8.0,\"max_us\":8.0},{\"key\":\"direct\",\"count\":1,\
         \"mean_us\":2.0,\"p50_us\":2.0,\"p95_us\":2.0,\"p99_us\":2.0,\
         \"p999_us\":2.0,\"max_us\":2.0},{\"key\":\"interposed\",\
         \"count\":1,\"mean_us\":5.0,\"p50_us\":5.0,\"p95_us\":5.0,\
         \"p99_us\":5.0,\"p999_us\":5.0,\"max_us\":5.0}]}"
      in
      Alcotest.(check string) "golden rthv-query/1 document" expected json)

(* Partition groups: a slot switch counts in both partitions (once when
   they are equal), an event naming no partition (or a negative one) under
   "unattributed", and ids past the group slots still get their own group;
   keys sort numerically. *)
let test_count_by_partition_groups () =
  let entries =
    List.mapi
      (fun i event -> { Hyp_trace.time = 10 * i; event })
      [
        Hyp_trace.Slot_switch { from_partition = 0; to_partition = 1 };
        Hyp_trace.Slot_switch { from_partition = 1; to_partition = 1 };
        Hyp_trace.Bottom_handler_start { irq = 0; partition = 10 };
        Hyp_trace.Bottom_handler_done { irq = 0; partition = 5000 };
        Hyp_trace.Boundary_deferred { owner = -3; until = 50 };
        Hyp_trace.Irq_raised { irq = 1; line = 0 };
        Hyp_trace.Interposition_end { target = 2; reason = `Queue_empty };
        Hyp_trace.Bottom_handler_done { irq = 1; partition = 5000 };
      ]
  in
  Testutil.with_temp (fun path ->
      ignore (Store.write_entries path entries : int);
      let q = Query.run ~agg:Query.Count ~group_by:Query.By_partition path in
      Alcotest.(check (list (pair string int)))
        "groups"
        [
          ("0", 1); ("1", 2); ("2", 1); ("10", 1); ("5000", 2);
          ("unattributed", 2);
        ]
        (List.map (fun g -> (g.Query.g_key, g.Query.g_count)) q.Query.q_groups))

(* A count-by-kind query finds its group by kind id, so a row allocates
   nothing: no kind-name hash, no option per lookup. *)
let test_count_by_kind_allocation () =
  let entries, _ = Lazy.force recorded in
  let events = Array.of_list entries in
  let m = Array.length events in
  let n = 120_000 in
  Testutil.with_temp (fun path ->
      let w = Store.Writer.create path in
      for k = 0 to n - 1 do
        let e = events.(k mod m) in
        Store.Writer.add w ~time:(k * 10) e.Hyp_trace.event
      done;
      Store.Writer.close w;
      let before = Gc.minor_words () in
      let q = Query.run ~agg:Query.Count ~group_by:Query.By_kind path in
      let words = Gc.minor_words () -. before in
      Alcotest.(check int) "every event counted" n q.Query.q_matched;
      let per_event = words /. float_of_int n in
      if per_event >= 0.1 then
        Alcotest.failf
          "count/kind query allocated %.0f minor words (%.2f per event)" words
          per_event)

let suite =
  [
    Alcotest.test_case "count matches entry list" `Quick
      test_count_matches_entries;
    Alcotest.test_case "time-windowed count" `Quick test_time_filter_count;
    Alcotest.test_case "rate span matches entries" `Quick
      test_rate_span_matches_entries;
    Alcotest.test_case "classifier matches simulator" `Quick
      test_classifier_matches_simulator;
    Alcotest.test_case "latency by source uses names" `Quick
      test_latency_by_source_named;
    Alcotest.test_case "on_sample streams every sample" `Quick
      test_on_sample_streams_everything;
    Alcotest.test_case "group-by mismatch rejected" `Quick
      test_group_by_mismatch_rejected;
    Alcotest.test_case "golden query JSON" `Quick test_golden_query_json;
    Alcotest.test_case "count by partition groups" `Quick
      test_count_by_partition_groups;
    Alcotest.test_case "count/kind allocates nothing per event" `Quick
      test_count_by_kind_allocation;
  ]
