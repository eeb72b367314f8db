(* lib/obs: labels, JSON, the P² quantile estimator, the registry and its
   domain-local installation. *)

module Obs = Rthv_obs
module Labels = Obs.Labels
module Json = Obs.Json
module Quantile = Obs.Quantile
module Registry = Obs.Registry
module Summary = Rthv_stats.Summary

(* --- labels ------------------------------------------------------------- *)

let test_labels_sorted () =
  let l = Labels.v [ ("z", "1"); ("a", "2") ] in
  Alcotest.(check (list (pair string string)))
    "sorted by key"
    [ ("a", "2"); ("z", "1") ]
    (Labels.to_list l);
  Alcotest.(check int) "equal after reorder" 0
    (Labels.compare l (Labels.v [ ("a", "2"); ("z", "1") ]))

let test_labels_reject () =
  Alcotest.check_raises "duplicate key"
    (Invalid_argument "Labels.v: duplicate label key \"a\"") (fun () ->
      ignore (Labels.v [ ("a", "1"); ("a", "2") ]))

(* --- json --------------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("l", Json.List [ Json.Bool true; Json.Null ]);
      ]
  in
  match Json.parse (Json.to_string doc) with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok parsed ->
      Alcotest.(check string)
        "roundtrip" (Json.to_string doc) (Json.to_string parsed)

let test_json_rejects_garbage () =
  (match Json.parse "{\"a\": 1,}" with
  | Ok _ -> Alcotest.fail "accepted trailing comma"
  | Error _ -> ());
  match Json.parse "[1] trailing" with
  | Ok _ -> Alcotest.fail "accepted trailing garbage"
  | Error _ -> ()

(* --- P² quantiles ------------------------------------------------------- *)

let test_p2_small_n_exact () =
  (* Under five observations the estimator must agree with nearest-rank. *)
  let e = Quantile.estimator 0.5 in
  List.iter (Quantile.add e) [ 9.0; 1.0; 5.0 ];
  Alcotest.(check (option (float 1e-9))) "median of 3" (Some 5.0)
    (Quantile.estimate e)

let test_p2_vs_exact () =
  (* A deterministic LCG stream; P² should land close to the sorted-sample
     percentile for a few thousand observations. *)
  let n = 5_000 in
  let state = ref 123456789 in
  let next () =
    state := (1103515245 * !state) + 12345;
    float_of_int (abs !state mod 100_000) /. 100.0
  in
  let samples = Array.init n (fun _ -> next ()) in
  let digest = Quantile.create () in
  Array.iter (Quantile.observe digest) samples;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  List.iter
    (fun p ->
      let exact = Summary.percentile sorted (100.0 *. p) in
      match Quantile.quantile digest p with
      | None -> Alcotest.failf "p%.1f missing" (100.0 *. p)
      | Some est ->
          (* Uniform on [0, 1000): allow 2 % of the range. *)
          if abs_float (est -. exact) > 20.0 then
            Alcotest.failf "p%.1f: P2 %.2f vs exact %.2f" (100.0 *. p) est
              exact)
    [ 0.5; 0.95; 0.99 ];
  Alcotest.(check int) "count" n (Quantile.count digest);
  Alcotest.(check (option (float 1e-9))) "min" (Some sorted.(0))
    (Quantile.min_value digest);
  Alcotest.(check (option (float 1e-9))) "max"
    (Some sorted.(n - 1))
    (Quantile.max_value digest)

let test_p2_monotone_across_quantiles () =
  let digest = Quantile.create () in
  for i = 1 to 1_000 do
    Quantile.observe digest (float_of_int ((i * 7919) mod 1000))
  done;
  let qs = Quantile.quantiles digest in
  Alcotest.(check int) "four tracked" 4 (List.length qs);
  let rec ascending = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "estimates ascend with p" true (ascending qs)

(* A deterministic stream mixing two scales, so the upper markers move on
   a long tail. *)
let p2_stream n =
  let state = ref 987654321 in
  Array.init n (fun _ ->
      state := (1103515245 * !state) + 12345;
      let v = abs !state mod 100_000 in
      float_of_int (v mod 1000) *. if v mod 7 = 0 then 37.5 else 1.25)

(* The P² step's float operations are fixed: these estimates are pinned to
   the bit. *)
let test_p2_bits_pinned () =
  let digest = Quantile.create () in
  Array.iter (Quantile.observe digest) (p2_stream 20_000);
  Alcotest.(check (list (pair (float 0.) string)))
    "quantile bits"
    [
      (0.5, "408690661d2560c1");
      (0.95, "40d745939ac4c165");
      (0.99, "40e0e5bba616d879");
      (0.999, "40e225adeeb477b7");
    ]
    (List.map
       (fun (p, v) -> (p, Printf.sprintf "%Lx" (Int64.bits_of_float v)))
       (Quantile.quantiles digest));
  let mean = Option.get (Quantile.mean digest) in
  Alcotest.(check string) "mean bits" "40a8e9b5ba5e353f"
    (Printf.sprintf "%Lx" (Int64.bits_of_float mean))

(* [observe] boxes nothing of its own: the caller's boxed argument is all
   a sample costs. *)
let test_p2_observe_allocation () =
  let xs = p2_stream 100_000 in
  let digest = Quantile.create () in
  let before = Gc.minor_words () in
  Array.iter (Quantile.observe digest) xs;
  let words = Gc.minor_words () -. before in
  let per_sample = words /. float_of_int (Array.length xs) in
  if per_sample > 2.5 then
    Alcotest.failf "observe allocated %.0f minor words (%.2f per sample)" words
      per_sample

(* --- P² against the reference step --------------------------------------- *)

(* Finite streams with ties and negative values: a few repeated values, a
   quarter grid and a wide range, over random tracked quantiles. *)
let gen_p2_stream =
  QCheck2.Gen.(
    let value =
      oneof
        [
          map float_of_int (-3 -- 3);
          map (fun k -> float_of_int k *. 0.25) (-400 -- 400);
          float_range (-1e9) 1e9;
        ]
    in
    let* quantiles =
      oneof
        [
          return None;
          map
            (fun ps -> Some ps)
            (list_size (1 -- 4) (float_range 0.001 0.999));
        ]
    in
    let* xs = list_size (0 -- 400) value in
    return (quantiles, xs))

(* The digest's reading, every float as its bits. *)
let p2_bits quantiles mean min_value max_value =
  let bits = Option.map Int64.bits_of_float in
  ( List.map (fun (p, v) -> (p, Int64.bits_of_float v)) quantiles,
    bits mean,
    bits min_value,
    bits max_value )

let lib_bits d =
  Quantile.(p2_bits (quantiles d) (mean d) (min_value d) (max_value d))

let ref_bits r =
  Quantile_ref.(p2_bits (quantiles r) (mean r) (min_value r) (max_value r))

let qcheck_p2_matches_reference =
  Testutil.qtest ~count:500 "P2 = reference step, bit for bit" gen_p2_stream
    (fun (quantiles, xs) ->
      let d = Quantile.create ?quantiles ()
      and r = Quantile_ref.create ?quantiles () in
      List.for_all
        (fun x ->
          Quantile.observe d x;
          Quantile_ref.observe r x;
          lib_bits d = ref_bits r)
        xs)

(* A NaN sample fails as the reference's does, wherever it comes, and the
   samples after it behave the same too. *)
let test_p2_nan_like_reference () =
  let outcome f =
    match f () with () -> "ok" | exception e -> Printexc.to_string e
  in
  List.iter
    (fun xs ->
      let d = Quantile.create () and r = Quantile_ref.create () in
      List.iter
        (fun x ->
          let lib = outcome (fun () -> Quantile.observe d x) in
          Alcotest.(check string) "outcome"
            (outcome (fun () -> Quantile_ref.observe r x))
            lib;
          Alcotest.(check bool) "state" true (lib_bits d = ref_bits r))
        xs)
    [
      [ 1.; 2.; 3.; 4.; 5.; 6.; Float.nan; 7. ];
      [ Float.nan; 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. ];
      [ 3.; 1.; Float.nan; 2.; 5.; 4.; 0.; 9.; -1. ];
    ]

(* --- registry ----------------------------------------------------------- *)

let test_registry_basics () =
  let r = Registry.create () in
  Registry.incr r "ops" 2;
  Registry.incr r "ops" 3;
  Registry.set_gauge r "depth" 7.5;
  Registry.observe r "lat" 42.0;
  Registry.observe_summary r "sum" 1.0;
  Alcotest.(check int) "four series" 4 (Registry.cardinality r);
  (match Registry.find r "ops" with
  | Some (Obs.Metric.Counter c) -> Alcotest.(check int) "counter" 5 !c
  | _ -> Alcotest.fail "ops not a counter");
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Registry: ops is a counter, not the requested kind")
    (fun () -> Registry.set_gauge r "ops" 1.0)

let test_registry_labels_are_distinct_series () =
  let r = Registry.create () in
  let a = Labels.v [ ("p", "0") ] and b = Labels.v [ ("p", "1") ] in
  Registry.incr r ~labels:a "n" 1;
  Registry.incr r ~labels:b "n" 10;
  Registry.incr r ~labels:a "n" 1;
  let values =
    List.map
      (fun (row : Registry.row) ->
        match row.Registry.value with
        | Obs.Metric.Counter c -> (Labels.to_list row.Registry.labels, !c)
        | _ -> Alcotest.fail "expected counters")
      (Registry.snapshot r)
  in
  Alcotest.(check (list (pair (list (pair string string)) int)))
    "two series"
    [ ([ ("p", "0") ], 2); ([ ("p", "1") ], 10) ]
    values

let test_prometheus_exposition () =
  let r = Registry.create () in
  Registry.incr r ~labels:(Labels.v [ ("q", "a\"b") ]) "total" 1;
  Registry.observe r ~bounds:[| 1.0; 10.0 |] "h" 5.0;
  let text = Registry.to_prometheus r in
  List.iter
    (fun needle ->
      if
        not
          (let hl = String.length text and nl = String.length needle in
           let rec scan i =
             i + nl <= hl
             && (String.sub text i nl = needle || scan (i + 1))
           in
           scan 0)
      then Alcotest.failf "missing %S in:\n%s" needle text)
    [
      "# TYPE total counter";
      "total{q=\"a\\\"b\"} 1";
      "# TYPE h histogram";
      "h_bucket{le=\"1\"} 0";
      "h_bucket{le=\"10\"} 1";
      "h_bucket{le=\"+Inf\"} 1";
      "h_sum 5";
      "h_count 1";
    ]

(* HELP lines: emitted once per documented family, before its TYPE line,
   with exposition-format escaping; merge adopts missing help texts; and a
   simulation's metrics fold documents the simulator's families. *)
let test_prometheus_help_lines () =
  let index hay needle =
    let hl = String.length hay and nl = String.length needle in
    let rec scan i =
      if i + nl > hl then None
      else if String.sub hay i nl = needle then Some i
      else scan (i + 1)
    in
    scan 0
  in
  let r = Registry.create () in
  Registry.set_help r "total" "Counted things, with a \\ and\na newline.";
  Registry.incr r "total" 1;
  Registry.set_gauge r "undocumented" 2.;
  let text = Registry.to_prometheus r in
  let help_at =
    match
      index text "# HELP total Counted things, with a \\\\ and\\na newline.\n"
    with
    | Some i -> i
    | None -> Alcotest.failf "missing escaped HELP line in:\n%s" text
  in
  (match index text "# TYPE total counter" with
  | Some type_at ->
      Alcotest.(check bool) "HELP precedes TYPE" true (help_at < type_at)
  | None -> Alcotest.fail "missing TYPE line");
  Alcotest.(check bool) "undocumented family has no HELP" true
    (index text "# HELP undocumented" = None);
  (* Merge adopts help texts missing from the destination. *)
  let into = Registry.create () in
  Registry.merge ~into r;
  Alcotest.(check (option string))
    "merge carries help"
    (Registry.help r "total")
    (Registry.help into "total");
  (* The metrics fold self-documents the simulator's families. *)
  let sim_reg = Registry.create () in
  Registry.with_installed sim_reg (fun () ->
      Rthv_core.Hyp_sim.run
        (Rthv_core.Hyp_sim.create (Rthv_check.Scenarios.quickstart ())));
  Alcotest.(check bool) "simulation stamps its help" true
    (Registry.help sim_reg "rthv_irq_latency_us" <> None)

let test_registry_json_parses () =
  let r = Registry.create () in
  Registry.incr r "c" 1;
  Registry.observe_summary r "s" 2.0;
  match Json.parse (Json.to_string (Registry.to_json r)) with
  | Ok (Json.List rows) -> Alcotest.(check int) "two rows" 2 (List.length rows)
  | Ok _ -> Alcotest.fail "expected a JSON array"
  | Error e -> Alcotest.failf "registry JSON does not parse: %s" e

(* --- installed registry ---------------------------------------------------- *)

let test_registry_install () =
  let same = Alcotest.testable (fun ppf _ -> Format.fprintf ppf "<registry>") ( == ) in
  Alcotest.(check (option same)) "none by default" None (Registry.installed ());
  let outer = Registry.create () and inner = Registry.create () in
  Registry.with_installed outer (fun () ->
      Alcotest.(check (option same)) "installed inside" (Some outer)
        (Registry.installed ());
      (try
         Registry.with_installed inner (fun () ->
             Alcotest.(check (option same)) "nested" (Some inner)
               (Registry.installed ());
             failwith "escape")
       with Failure _ -> ());
      Alcotest.(check (option same)) "outer restored after an exception"
        (Some outer) (Registry.installed ());
      (* Domain-local: a fresh domain sees nothing installed. *)
      Alcotest.(check bool) "other domain sees none" true
        (Domain.join (Domain.spawn (fun () -> Registry.installed () = None))));
  Alcotest.(check (option same)) "uninstalled after" None (Registry.installed ())

let test_registry_collects_sim_metrics () =
  (* End to end: a simulation created under an installed registry folds its
     trace into the instrumentation series, with counts that agree with
     the simulator's statistics. *)
  let r = Registry.create () in
  let config = Rthv_check.Scenarios.quickstart () in
  let sim =
    Registry.with_installed r (fun () -> Rthv_core.Hyp_sim.create config)
  in
  Rthv_core.Hyp_sim.run sim;
  let stats = Rthv_core.Hyp_sim.stats sim in
  let counter ?labels name =
    match Registry.find r ?labels name with
    | Some (Obs.Metric.Counter c) -> !c
    | _ -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check int)
    "interpositions" stats.Rthv_core.Hyp_sim.interpositions_started
    (counter
       ~labels:(Labels.v [ ("partition", "1") ])
       "rthv_interpositions_total");
  Alcotest.(check int)
    "slot switches" stats.Rthv_core.Hyp_sim.slot_switches
    (counter "rthv_slot_switches_total");
  Alcotest.(check int)
    "direct completions" stats.Rthv_core.Hyp_sim.direct
    (counter
       ~labels:
         (Labels.v [ ("class", "direct"); ("partition", "1"); ("source", "nic") ])
       "rthv_irq_completed_total");
  match Registry.find r ~labels:(Labels.v [ ("class", "direct"); ("source", "nic") ])
          "rthv_irq_latency_us"
  with
  | Some (Obs.Metric.Summary q) ->
      Alcotest.(check int) "direct latencies observed"
        stats.Rthv_core.Hyp_sim.direct (Quantile.count q)
  | _ -> Alcotest.fail "missing rthv_irq_latency_us summary"

let suite =
  [
    Alcotest.test_case "labels sort and compare" `Quick test_labels_sorted;
    Alcotest.test_case "labels reject duplicates" `Quick test_labels_reject;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "P2 exact under five samples" `Quick
      test_p2_small_n_exact;
    Alcotest.test_case "P2 tracks exact percentiles" `Quick test_p2_vs_exact;
    Alcotest.test_case "P2 quantiles ascend" `Quick
      test_p2_monotone_across_quantiles;
    Alcotest.test_case "P2 estimates pinned bit for bit" `Quick
      test_p2_bits_pinned;
    Alcotest.test_case "P2 observe boxes nothing" `Quick
      test_p2_observe_allocation;
    qcheck_p2_matches_reference;
    Alcotest.test_case "P2 NaN fails like the reference" `Quick
      test_p2_nan_like_reference;
    Alcotest.test_case "registry kinds and clash" `Quick test_registry_basics;
    Alcotest.test_case "labelled series are distinct" `Quick
      test_registry_labels_are_distinct_series;
    Alcotest.test_case "prometheus exposition" `Quick
      test_prometheus_exposition;
    Alcotest.test_case "prometheus HELP lines" `Quick
      test_prometheus_help_lines;
    Alcotest.test_case "registry JSON parses" `Quick test_registry_json_parses;
    Alcotest.test_case "registry install/uninstall" `Quick
      test_registry_install;
    Alcotest.test_case "registry collects simulator metrics" `Quick
      test_registry_collects_sim_metrics;
  ]
