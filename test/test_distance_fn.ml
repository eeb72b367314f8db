module DF = Rthv_analysis.Distance_fn
module Cycles = Rthv_engine.Cycles

let us = Testutil.us

let test_d_min_basics () =
  let fn = DF.d_min (us 100) in
  Alcotest.(check int) "length" 1 (DF.length fn);
  Testutil.check_cycles "delta 0" 0 (DF.delta fn 0);
  Testutil.check_cycles "delta 1" 0 (DF.delta fn 1);
  Testutil.check_cycles "delta 2" (us 100) (DF.delta fn 2);
  Testutil.check_cycles "delta 5 extends linearly" (us 400) (DF.delta fn 5)

let test_normalisation () =
  let fn = DF.of_entries [| us 300; us 100; us 500 |] in
  let entries = DF.entries fn in
  Testutil.check_cycles "entry 0 kept" (us 300) entries.(0);
  Testutil.check_cycles "entry 1 raised to running max" (us 300) entries.(1);
  Testutil.check_cycles "entry 2 kept" (us 500) entries.(2)

let test_superadditive_extension () =
  (* l = 2: delta(2) = 10us, delta(3) = 50us. *)
  let fn = DF.of_entries [| us 10; us 50 |] in
  Testutil.check_cycles "delta 3 stored" (us 50) (DF.delta fn 3);
  (* delta(4): 3 gaps = 2 gaps (50us) + 1 gap (10us). *)
  Testutil.check_cycles "delta 4 composed" (us 60) (DF.delta fn 4);
  Testutil.check_cycles "delta 5 composed" (us 100) (DF.delta fn 5);
  Testutil.check_cycles "delta 7 composed" (us 150) (DF.delta fn 7)

let test_eta_plus_duality_periodic () =
  let fn = DF.d_min (us 100) in
  Alcotest.(check int) "eta(0) = 0" 0 (DF.eta_plus fn 0);
  Alcotest.(check int) "eta(1 cycle) = 1" 1 (DF.eta_plus fn 1);
  Alcotest.(check int) "eta(100us) = 1" 1 (DF.eta_plus fn (us 100));
  Alcotest.(check int) "eta(100us + 1) = 2" 2 (DF.eta_plus fn (us 100 + 1));
  Alcotest.(check int) "eta(250us) = 3" 3 (DF.eta_plus fn (us 250))

let test_eta_plus_degenerate () =
  let fn = DF.unbounded ~l:3 in
  Alcotest.(check int) "eta on empty window" 0 (DF.eta_plus fn 0);
  Alcotest.check_raises "degenerate eta rejected"
    (Failure "Distance_fn.eta_plus: degenerate function admits unbounded load")
    (fun () -> ignore (DF.eta_plus fn 1 : int))

let test_of_trace_learns_min_distances () =
  (* Events at 0, 100, 150, 400us: min consecutive gap 50, min 3-span 150,
     min 4-span 400. *)
  let ts = List.map us [ 0; 100; 150; 400 ] in
  let fn = DF.of_trace ~l:3 ts in
  let entries = DF.entries fn in
  Testutil.check_cycles "delta(2) learned" (us 50) entries.(0);
  Testutil.check_cycles "delta(3) learned" (us 150) entries.(1);
  Testutil.check_cycles "delta(4) learned" (us 400) entries.(2)

let test_of_trace_matches_conforms () =
  let ts = List.map us [ 0; 10; 30; 100; 101; 250 ] in
  let fn = DF.of_trace ~l:4 ts in
  Alcotest.(check bool) "trace conforms to its own learned function" true
    (DF.conforms fn ts)

let test_conforms_detects_violation () =
  let fn = DF.d_min (us 100) in
  Alcotest.(check bool) "ok spacing" true
    (DF.conforms fn (List.map us [ 0; 100; 200 ]));
  Alcotest.(check bool) "violation detected" false
    (DF.conforms fn (List.map us [ 0; 100; 150 ]))

let test_adjust_to_bound () =
  let learned = DF.of_entries [| us 10; us 200 |] in
  let bound = DF.of_entries [| us 50; us 100 |] in
  let adjusted = DF.adjust_to_bound ~learned ~bound in
  let entries = DF.entries adjusted in
  Testutil.check_cycles "raised to bound" (us 50) entries.(0);
  Testutil.check_cycles "kept when above bound" (us 200) entries.(1)

let test_scale_load () =
  let fn = DF.of_entries [| us 100; us 300 |] in
  let quarter = DF.scale_load fn ~factor:0.25 in
  let entries = DF.entries quarter in
  Testutil.check_cycles "quarter load quadruples distances" (us 400) entries.(0);
  Testutil.check_cycles "quarter load entry 1" (us 1200) entries.(1);
  let double = DF.scale_load fn ~factor:2.0 in
  Testutil.check_cycles "double load halves distances" (us 50)
    (DF.entries double).(0)

let test_long_term_rate () =
  let fn = DF.of_entries [| us 100; us 400 |] in
  (* l = 2 events per delta(3) = 400us. *)
  Testutil.close "rate" (2. /. float_of_int (us 400)) (DF.long_term_rate fn);
  Alcotest.(check bool) "degenerate rate infinite" true
    (DF.long_term_rate (DF.unbounded ~l:2) = infinity)

let test_validation_errors () =
  Alcotest.check_raises "empty entries"
    (Invalid_argument "Distance_fn.of_entries: empty array") (fun () ->
      ignore (DF.of_entries [||] : DF.t));
  Alcotest.check_raises "negative q"
    (Invalid_argument "Distance_fn.delta: negative q") (fun () ->
      ignore (DF.delta (DF.d_min 10) (-1) : Cycles.t));
  Alcotest.check_raises "bad scale factor"
    (Invalid_argument "Distance_fn.scale_load: factor <= 0") (fun () ->
      ignore (DF.scale_load (DF.d_min 10) ~factor:0. : DF.t))

(* Properties *)

let entries_gen =
  QCheck2.Gen.(list_size (1 -- 6) (0 -- 100_000))

let prop_delta_monotone entries =
  let fn = DF.of_entries (Array.of_list entries) in
  let ok = ref true in
  for q = 0 to 30 do
    if DF.delta fn q > DF.delta fn (q + 1) then ok := false
  done;
  !ok

let prop_duality entries =
  (* eta(delta(q)) < q and eta(delta(q)+1) >= q for q in support, when the
     function is non-degenerate. *)
  let fn = DF.of_entries (Array.of_list entries) in
  let last = (DF.entries fn).(DF.length fn - 1) in
  if last = 0 then true
  else begin
    let ok = ref true in
    for q = 2 to 15 do
      let d = DF.delta fn q in
      if DF.eta_plus fn d >= q && d > 0 then ok := false;
      if DF.eta_plus fn (d + 1) < q then ok := false
    done;
    !ok
  end

let prop_learned_is_lower_bound timestamps =
  let ts = List.sort_uniq compare (List.map abs timestamps) in
  if List.length ts < 2 then true
  else begin
    let fn = DF.of_trace ~l:4 ts in
    DF.conforms fn ts
  end

(* Past max_int: delta saturates instead of wrapping negative, and the
   doubling search of eta_plus stops at max_int instead of asking delta
   for a negative q. *)
let test_saturation () =
  let fn = DF.d_min 200 in
  Testutil.check_cycles "delta saturates" max_int (DF.delta fn max_int);
  Alcotest.(check int) "eta_plus near max_int" 23058430092136939
    (DF.eta_plus fn 4611686018427387800);
  Alcotest.(check int) "eta_plus past max_int events" max_int
    (DF.eta_plus (DF.d_min 1) max_int);
  Alcotest.(check int) "eta_plus of a long l past max_int events" max_int
    (DF.eta_plus (DF.of_entries [| 0; 0; 1 |]) max_int);
  Testutil.check_cycles "in range unchanged" 1_000_000
    (Rthv_engine.Cycles.add_sat 999_999 1);
  Testutil.check_cycles "sum saturates" max_int
    (Rthv_engine.Cycles.add_sat (max_int - 5) 6);
  Testutil.check_cycles "product saturates" max_int
    (Rthv_engine.Cycles.mul_sat (max_int / 3) 4)

let suite =
  [
    Alcotest.test_case "d_min basics" `Quick test_d_min_basics;
    Alcotest.test_case "normalisation" `Quick test_normalisation;
    Alcotest.test_case "superadditive extension" `Quick
      test_superadditive_extension;
    Alcotest.test_case "eta duality (d_min)" `Quick test_eta_plus_duality_periodic;
    Alcotest.test_case "eta on degenerate function" `Quick test_eta_plus_degenerate;
    Alcotest.test_case "Algorithm 1 on a known trace" `Quick
      test_of_trace_learns_min_distances;
    Alcotest.test_case "trace conforms to learned" `Quick
      test_of_trace_matches_conforms;
    Alcotest.test_case "conforms detects violations" `Quick
      test_conforms_detects_violation;
    Alcotest.test_case "Algorithm 2 bound adjustment" `Quick test_adjust_to_bound;
    Alcotest.test_case "load scaling" `Quick test_scale_load;
    Alcotest.test_case "long-term rate" `Quick test_long_term_rate;
    Alcotest.test_case "validation errors" `Quick test_validation_errors;
    Testutil.qtest "delta is monotone in q" entries_gen prop_delta_monotone;
    Testutil.qtest "eta/delta duality" entries_gen prop_duality;
    Testutil.qtest "learned function lower-bounds its trace"
      QCheck2.Gen.(list_size (2 -- 60) (0 -- 1_000_000))
      prop_learned_is_lower_bound;
    Alcotest.test_case "saturation past max_int" `Quick test_saturation;
  ]
