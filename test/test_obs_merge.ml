(* Merge semantics for the observability layer: quantile digests, registry
   folds, the per-task sweep composition, and the JSON escaping the
   exporters rely on. *)

module Obs = Rthv_obs
module Labels = Obs.Labels
module Json = Obs.Json
module Quantile = Obs.Quantile
module Metric = Obs.Metric
module Registry = Obs.Registry
module Par = Rthv_par.Par

let digest_of xs =
  let q = Quantile.create () in
  List.iter (Quantile.observe q) xs;
  q

(* --- quantile merge ------------------------------------------------------ *)

let test_merge_small_sample_exact () =
  (* Combined count <= 5: the merge must agree with observing the union. *)
  let m = Quantile.merge (digest_of [ 9.0; 1.0 ]) (digest_of [ 5.0 ]) in
  Alcotest.(check int) "count" 3 (Quantile.count m);
  Alcotest.(check (option (float 1e-9))) "min" (Some 1.0)
    (Quantile.min_value m);
  Alcotest.(check (option (float 1e-9))) "max" (Some 9.0)
    (Quantile.max_value m);
  Alcotest.(check (option (float 1e-9))) "median of union" (Some 5.0)
    (Quantile.quantile m 0.5)

let test_merge_identity () =
  (* Merging with an empty digest changes nothing. *)
  let a = digest_of (List.init 500 (fun i -> float_of_int ((i * 37) mod 100))) in
  let left = Quantile.merge (Quantile.create ()) a in
  let right = Quantile.merge a (Quantile.create ()) in
  List.iter
    (fun m ->
      Alcotest.(check int) "count" (Quantile.count a) (Quantile.count m);
      Alcotest.(check (option (float 1e-9))) "mean" (Quantile.mean a)
        (Quantile.mean m);
      List.iter2
        (fun (p, ea) (p', em) ->
          Alcotest.(check (float 1e-9)) "quantile p" p p';
          Alcotest.(check (float 1e-9)) "quantile est" ea em)
        (Quantile.quantiles a) (Quantile.quantiles m))
    [ left; right ]

let test_merge_deterministic () =
  (* Same inputs, same order: bit-identical output — the property the
     parallel sweeps rely on. *)
  let mk seed =
    digest_of (List.init 2_000 (fun i -> float_of_int ((i * seed) mod 997)))
  in
  let once = Quantile.merge (mk 37) (mk 101) in
  let again = Quantile.merge (mk 37) (mk 101) in
  List.iter2
    (fun (_, a) (_, b) ->
      Alcotest.(check bool) "bit-identical estimate" true (Float.equal a b))
    (Quantile.quantiles once) (Quantile.quantiles again)

let test_merge_moments_exact_and_estimates_close () =
  (* Count / sum / min / max combine exactly for any split; the quantile
     estimates stay close to the sequential digest. *)
  let xs = List.init 4_000 (fun i -> float_of_int ((i * 7919) mod 1_000)) in
  let n = List.length xs in
  let rec split i = function
    | [] -> ([], [])
    | x :: rest ->
        let a, b = split (i + 1) rest in
        if i < n / 3 then (x :: a, b) else (a, x :: b)
  in
  let left, right = split 0 xs in
  let merged = Quantile.merge (digest_of left) (digest_of right) in
  let sequential = digest_of xs in
  Alcotest.(check int) "count" (Quantile.count sequential)
    (Quantile.count merged);
  Alcotest.(check (option (float 1e-6))) "mean" (Quantile.mean sequential)
    (Quantile.mean merged);
  Alcotest.(check (option (float 1e-9))) "min"
    (Quantile.min_value sequential) (Quantile.min_value merged);
  Alcotest.(check (option (float 1e-9))) "max"
    (Quantile.max_value sequential) (Quantile.max_value merged);
  List.iter
    (fun p ->
      match (Quantile.quantile merged p, Quantile.quantile sequential p) with
      | Some m, Some s ->
          (* Values are uniform on [0, 1000); the pseudo-sample replay adds
             error on top of P²'s own, so allow 10 % of the range. *)
          if abs_float (m -. s) > 100.0 then
            Alcotest.failf "p%g: merged %.2f vs sequential %.2f" p m s
      | _ -> Alcotest.failf "p%g missing" p)
    [ 0.5; 0.95; 0.99 ]

let test_merge_rejects_mismatched_quantiles () =
  let a = Quantile.create ~quantiles:[ 0.5 ] () in
  let b = Quantile.create ~quantiles:[ 0.9 ] () in
  Alcotest.check_raises "quantile set mismatch"
    (Invalid_argument "Quantile.merge: tracked quantile sets differ")
    (fun () -> ignore (Quantile.merge a b))

(* --- registry merge ------------------------------------------------------ *)

let test_registry_merge_kinds () =
  let into = Registry.create () and src = Registry.create () in
  Registry.incr into "c" 2;
  Registry.incr src "c" 3;
  Registry.set_gauge into "g" 1.0;
  Registry.set_gauge src "g" 9.0;
  Registry.observe into ~bounds:[| 10.0 |] "h" 5.0;
  Registry.observe src ~bounds:[| 10.0 |] "h" 50.0;
  Registry.incr src "only_src" 7;
  Registry.merge ~into src;
  (match Registry.find into "c" with
  | Some (Metric.Counter c) -> Alcotest.(check int) "counters add" 5 !c
  | _ -> Alcotest.fail "c");
  (match Registry.find into "g" with
  | Some (Metric.Gauge g) ->
      Alcotest.(check (float 1e-9)) "gauge takes source" 9.0 !g
  | _ -> Alcotest.fail "g");
  (match Registry.find into "h" with
  | Some (Metric.Histogram h) ->
      let counts = Metric.bucket_counts h in
      Alcotest.(check int) "bins add" 1 counts.(0);
      Alcotest.(check int) "overflow adds" 1 counts.(Array.length counts - 1);
      Alcotest.(check (float 1e-9)) "sum adds" 55.0 (Metric.sum h)
  | _ -> Alcotest.fail "h");
  (match Registry.find into "only_src" with
  | Some (Metric.Counter c) ->
      Alcotest.(check int) "missing series copied in" 7 !c
  | _ -> Alcotest.fail "only_src");
  (* The copy is deep: mutating the source afterwards must not leak. *)
  Registry.incr src "only_src" 100;
  match Registry.find into "only_src" with
  | Some (Metric.Counter c) -> Alcotest.(check int) "deep copy" 7 !c
  | _ -> Alcotest.fail "only_src after"

let test_registry_merge_of_splits_matches_sequential () =
  (* Counters and histograms are exact under any split, so folding shards
     must reproduce the sequential exposition bytes. *)
  let record reg i =
    let labels = Labels.v [ ("shard", string_of_int (i mod 2)) ] in
    Registry.incr reg ~labels "events_total" 1;
    Registry.observe reg ~labels ~bounds:[| 10.0; 100.0 |] "size"
      (float_of_int ((i * 13) mod 150))
  in
  let sequential = Registry.create () in
  List.iter (record sequential) (List.init 200 Fun.id);
  let shards = Array.init 4 (fun _ -> Registry.create ()) in
  List.iter (fun i -> record shards.(i mod 4) i) (List.init 200 Fun.id);
  let folded = Registry.create () in
  Array.iter (Registry.merge ~into:folded) shards;
  Alcotest.(check string) "exposition bytes"
    (Registry.to_prometheus sequential)
    (Registry.to_prometheus folded)

let test_registry_merge_associativity () =
  (* Counters and histogram bins add, so their fold is associative:
     (a+b)+c = a+(b+c) byte for byte.  (Summary merges are deterministic
     in fold order but not associative — that is why the sweep engine
     pins the fold to task-index order.) *)
  let mk seed =
    let reg = Registry.create () in
    for i = 1 to 300 do
      Registry.incr reg "n" i;
      Registry.observe reg ~bounds:[| 50.0; 250.0 |] "lat"
        (float_of_int ((i * seed) mod 500))
    done;
    reg
  in
  let left = Registry.create () in
  Registry.merge ~into:left (mk 7);
  Registry.merge ~into:left (mk 11);
  Registry.merge ~into:left (mk 13);
  let bc = Registry.create () in
  Registry.merge ~into:bc (mk 11);
  Registry.merge ~into:bc (mk 13);
  let right = Registry.create () in
  Registry.merge ~into:right (mk 7);
  Registry.merge ~into:right bc;
  Alcotest.(check string) "associative fold bytes"
    (Registry.to_prometheus left)
    (Registry.to_prometheus right)

let test_registry_merge_bound_mismatch () =
  let into = Registry.create () and src = Registry.create () in
  Registry.observe into ~bounds:[| 1.0 |] "h" 0.5;
  Registry.observe src ~bounds:[| 2.0 |] "h" 0.5;
  Alcotest.check_raises "bound mismatch"
    (Invalid_argument "Metric.merge: histogram bucket bounds differ")
    (fun () -> Registry.merge ~into src)

(* --- parallel sweep composition ------------------------------------------ *)

let test_par_metrics_byte_identical () =
  (* The acceptance property end to end: a sweep recording into the
     domain-locally installed registry produces byte-identical metrics at
     any job count. *)
  let sweep pool =
    let reg = Registry.create () in
    let _ : int list =
      Par.mapi ~pool ~metrics:reg
        (fun i x ->
          let task_reg = Option.get (Registry.installed ()) in
          Registry.incr task_reg "rthv_tasks_total" 1;
          Registry.observe_summary task_reg
            ~labels:(Labels.v [ ("bucket", string_of_int (i mod 3)) ])
            "rthv_task_val_us"
            (float_of_int ((i * 97) + x));
          x)
        (List.init 60 Fun.id)
    in
    Registry.to_prometheus reg
  in
  let seq = sweep Par.sequential in
  Alcotest.(check string) "jobs=4 = sequential" seq
    (sweep (Par.create ~jobs:4 ()));
  Alcotest.(check string) "jobs=3 = sequential" seq
    (sweep (Par.create ~jobs:3 ()))

(* --- json escaping -------------------------------------------------------- *)

let test_json_control_character_escaping () =
  (* Metric labels and span sources can carry arbitrary bytes; the exporter
     must emit valid JSON for all control characters. *)
  let s = "a\"b\\c\nd\re\tf\x01g\x1f" in
  let rendered = Json.to_string (Json.String s) in
  let contains needle =
    let hl = String.length rendered and nl = String.length needle in
    let rec scan i =
      i + nl <= hl && (String.sub rendered i nl = needle || scan (i + 1))
    in
    scan 0
  in
  List.iter
    (fun needle ->
      if not (contains needle) then
        Alcotest.failf "missing %S in %s" needle rendered)
    [ {|\"|}; {|\\|}; {|\n|}; {|\r|}; {|\t|}; {|\u0001|}; {|\u001f|} ];
  String.iter
    (fun c ->
      if Char.code c < 0x20 then
        Alcotest.failf "raw control byte %#x leaked into %s" (Char.code c)
          rendered)
    rendered;
  match Json.parse rendered with
  | Ok (Json.String round) ->
      Alcotest.(check string) "roundtrips through parse" s round
  | Ok _ -> Alcotest.fail "parsed to a non-string"
  | Error e -> Alcotest.failf "escaped output does not parse: %s" e

let suite =
  [
    Alcotest.test_case "quantile merge exact under five samples" `Quick
      test_merge_small_sample_exact;
    Alcotest.test_case "quantile merge identity" `Quick test_merge_identity;
    Alcotest.test_case "quantile merge deterministic" `Quick
      test_merge_deterministic;
    Alcotest.test_case "quantile merge moments exact" `Quick
      test_merge_moments_exact_and_estimates_close;
    Alcotest.test_case "quantile merge rejects mismatch" `Quick
      test_merge_rejects_mismatched_quantiles;
    Alcotest.test_case "registry merge per kind" `Quick
      test_registry_merge_kinds;
    Alcotest.test_case "merge of splits = sequential bytes" `Quick
      test_registry_merge_of_splits_matches_sequential;
    Alcotest.test_case "registry fold associativity" `Quick
      test_registry_merge_associativity;
    Alcotest.test_case "histogram bound mismatch rejected" `Quick
      test_registry_merge_bound_mismatch;
    Alcotest.test_case "sweep metrics byte-identical across jobs" `Quick
      test_par_metrics_byte_identical;
    Alcotest.test_case "json control-character escaping" `Quick
      test_json_control_character_escaping;
  ]
