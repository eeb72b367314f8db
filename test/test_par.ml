(* The sweep engine's contract: parallel results are the same values, in
   the same order, as the sequential list functions — for any job count —
   plus deterministic exception propagation and safe nesting. *)

module Par = Rthv_par.Par

let pool4 = Par.create ~jobs:4 ()

let test_create_validation () =
  Alcotest.check_raises "jobs = 0 rejected"
    (Invalid_argument "Par.create: jobs must be >= 1") (fun () ->
      ignore (Par.create ~jobs:0 ()));
  Alcotest.(check int) "jobs recorded" 4 (Par.jobs pool4);
  Alcotest.(check int) "sequential pool" 1 (Par.jobs Par.sequential)

let test_derive_seed () =
  Alcotest.(check int) "seed + index" 45 (Par.derive_seed ~base:42 ~index:3);
  Alcotest.(check int) "index 0 is the base" 42
    (Par.derive_seed ~base:42 ~index:0)

let test_empty_and_singleton () =
  Alcotest.(check (list int)) "empty map" [] (Par.map ~pool:pool4 succ []);
  Alcotest.(check (list int)) "singleton map" [ 8 ]
    (Par.map ~pool:pool4 succ [ 7 ]);
  Alcotest.(check (list int)) "init 0" [] (Par.init ~pool:pool4 0 succ)

exception Task_failed of int

let test_exception_lowest_index () =
  (* Several tasks fail; the caller must see the lowest-index failure
     regardless of which domain hit it first. *)
  let f i _ = if i mod 3 = 2 then raise (Task_failed i) else i in
  match Par.mapi ~pool:pool4 f (List.init 100 Fun.id) with
  | _ -> Alcotest.fail "expected Task_failed"
  | exception Task_failed i ->
      Alcotest.(check int) "lowest failing index wins" 2 i

let test_nested_sweep () =
  (* A task that itself sweeps must degrade to the sequential path (no
     domain explosion) and still compute the right thing. *)
  let inner n = Par.init ~pool:pool4 n (fun i -> i * i) in
  let got = Par.map ~pool:pool4 (fun n -> List.fold_left ( + ) 0 (inner n))
      [ 1; 5; 10; 20 ]
  in
  let expected =
    List.map
      (fun n -> List.fold_left ( + ) 0 (List.init n (fun i -> i * i)))
      [ 1; 5; 10; 20 ]
  in
  Alcotest.(check (list int)) "nested sweep correct" expected got

(* Properties: every combinator equals its sequential counterpart.  The
   task functions depend on both index and value so misordered slots or a
   skewed index partition cannot cancel out. *)

let gen_ints = QCheck2.Gen.(list_size (0 -- 64) (-1000 -- 1000))

let prop_mapi xs =
  let f i x = (i * 31) + x in
  Par.mapi ~pool:pool4 f xs = List.mapi f xs

let prop_map xs =
  let f x = (x * 7) - 3 in
  Par.map ~pool:pool4 f xs = List.map f xs

let prop_init n =
  let f i = (i * i) - (7 * i) in
  Par.init ~pool:pool4 n f = List.init n f

let suite =
  [
    Alcotest.test_case "pool validation" `Quick test_create_validation;
    Alcotest.test_case "seed derivation" `Quick test_derive_seed;
    Alcotest.test_case "empty and singleton inputs" `Quick
      test_empty_and_singleton;
    Alcotest.test_case "lowest-index exception wins" `Quick
      test_exception_lowest_index;
    Alcotest.test_case "nested sweeps run sequentially" `Quick
      test_nested_sweep;
    Testutil.qtest "mapi = List.mapi at jobs=4" gen_ints prop_mapi;
    Testutil.qtest "map = List.map at jobs=4" gen_ints prop_map;
    Testutil.qtest "init = List.init at jobs=4" QCheck2.Gen.(0 -- 128)
      prop_init;
  ]
