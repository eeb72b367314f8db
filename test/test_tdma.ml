module Tdma = Rthv_core.Tdma

let us = Testutil.us

let paper = Tdma.of_us [| 6000; 6000; 2000 |]

let test_cycle_length () =
  Testutil.check_cycles "T_TDMA" (us 14_000) (Tdma.cycle_length paper);
  Alcotest.(check int) "partitions" 3 (Tdma.partitions paper);
  Testutil.check_cycles "T_0" (us 6_000) (Tdma.slot_length paper 0);
  Testutil.check_cycles "T_2" (us 2_000) (Tdma.slot_length paper 2)

let test_owner_at () =
  Alcotest.(check int) "t=0" 0 (Tdma.owner_at paper 0);
  Alcotest.(check int) "mid first slot" 0 (Tdma.owner_at paper (us 3_000));
  Alcotest.(check int) "boundary starts next" 1 (Tdma.owner_at paper (us 6_000));
  Alcotest.(check int) "housekeeping slot" 2 (Tdma.owner_at paper (us 12_500));
  Alcotest.(check int) "wraps to next cycle" 0 (Tdma.owner_at paper (us 14_000));
  Alcotest.(check int) "deep into later cycles" 1
    (Tdma.owner_at paper (us ((14_000 * 7) + 8_000)))

let test_slot_bounds () =
  let owner, start, stop = Tdma.slot_bounds_at paper (us 8_000) in
  Alcotest.(check int) "owner" 1 owner;
  Testutil.check_cycles "start" (us 6_000) start;
  Testutil.check_cycles "end" (us 12_000) stop;
  let owner2, start2, stop2 = Tdma.slot_bounds_at paper (us 20_500) in
  Alcotest.(check int) "owner in cycle 2" 1 owner2;
  Testutil.check_cycles "start in cycle 2" (us 20_000) start2;
  Testutil.check_cycles "end in cycle 2" (us 26_000) stop2

let test_next_boundary () =
  Testutil.check_cycles "from t=0" (us 6_000) (Tdma.next_boundary paper 0);
  Testutil.check_cycles "from inside slot 1" (us 12_000)
    (Tdma.next_boundary paper (us 7_000));
  Testutil.check_cycles "boundary is strictly after" (us 12_000)
    (Tdma.next_boundary paper (us 6_000))

let test_next_slot_start () =
  Testutil.check_cycles "own slot from zero" 0
    (Tdma.next_slot_start paper ~partition:0 ~after:0);
  Testutil.check_cycles "p1 from zero" (us 6_000)
    (Tdma.next_slot_start paper ~partition:1 ~after:0);
  Testutil.check_cycles "p0 after its slot started" (us 14_000)
    (Tdma.next_slot_start paper ~partition:0 ~after:(us 1));
  Testutil.check_cycles "p2 later in the cycle" (us 12_000)
    (Tdma.next_slot_start paper ~partition:2 ~after:(us 9_000));
  Testutil.check_cycles "exact start counts" (us 12_000)
    (Tdma.next_slot_start paper ~partition:2 ~after:(us 12_000))

let test_interference_bridge () =
  let ti = Tdma.interference paper ~partition:0 in
  Testutil.check_cycles "gap via analysis view" (us 8_000)
    (Rthv_analysis.Tdma_interference.worst_case_gap ti)

let test_validation () =
  Alcotest.check_raises "empty schedule"
    (Invalid_argument "Tdma.make: no partitions") (fun () ->
      ignore (Tdma.make [||] : Tdma.t));
  Alcotest.check_raises "zero slot"
    (Invalid_argument "Tdma.make: non-positive slot") (fun () ->
      ignore (Tdma.of_us [| 10; 0 |] : Tdma.t))

let schedule_gen =
  QCheck2.Gen.(
    map
      (fun slots -> Tdma.make (Array.of_list slots))
      (list_size (1 -- 6) (1 -- 10_000)))

let prop_owner_consistent_with_bounds (tdma, time) =
  let owner, start, stop = Tdma.slot_bounds_at tdma time in
  owner = Tdma.owner_at tdma time
  && start <= time && time < stop
  && stop - start = Tdma.slot_length tdma owner

let prop_locate_matches_bounds (tdma, time) =
  let s = Tdma.slot () in
  Tdma.locate tdma time s;
  let owner, _start, stop = Tdma.slot_bounds_at tdma time in
  s.Tdma.owner = owner && s.Tdma.slot_end = stop
  && s.Tdma.slot_end = Tdma.next_boundary tdma time

let test_locate_allocation_free () =
  let s = Tdma.slot () in
  Tdma.locate paper 0 s;
  let before = Gc.minor_words () in
  for k = 0 to 9_999 do
    Tdma.locate paper (k * us 997) s
  done;
  let after = Gc.minor_words () in
  Alcotest.(check bool)
    (Printf.sprintf "10k lookups allocate nothing (%.0f words)"
       (after -. before))
    true
    (after -. before = 0.0)

let prop_slots_partition_cycle tdma =
  (* Walking boundaries from 0 visits every partition once per cycle and
     advances exactly one cycle. *)
  let n = Tdma.partitions tdma in
  let rec walk t count acc =
    if count = n then (t, acc)
    else begin
      let owner = Tdma.owner_at tdma t in
      walk (Tdma.next_boundary tdma t) (count + 1) (owner :: acc)
    end
  in
  let t_end, owners = walk 0 0 [] in
  t_end = Tdma.cycle_length tdma
  && List.sort compare owners = List.init n (fun i -> i)

let prop_next_slot_start_is_owned (tdma, partition_seed, after) =
  let partition = partition_seed mod Tdma.partitions tdma in
  let start = Tdma.next_slot_start tdma ~partition ~after in
  start >= after
  && Tdma.owner_at tdma start = partition
  && (start = 0 || Tdma.owner_at tdma (start - 1) <> partition
      || Tdma.partitions tdma = 1)

let suite =
  [
    Alcotest.test_case "cycle structure" `Quick test_cycle_length;
    Alcotest.test_case "owner lookup" `Quick test_owner_at;
    Alcotest.test_case "slot bounds" `Quick test_slot_bounds;
    Alcotest.test_case "next boundary" `Quick test_next_boundary;
    Alcotest.test_case "next slot start" `Quick test_next_slot_start;
    Alcotest.test_case "analysis bridge" `Quick test_interference_bridge;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "locate allocates nothing" `Quick
      test_locate_allocation_free;
    Testutil.qtest "owner consistent with bounds"
      QCheck2.Gen.(pair schedule_gen (0 -- 10_000_000))
      prop_owner_consistent_with_bounds;
    Testutil.qtest "locate matches bounds and next_boundary"
      QCheck2.Gen.(pair schedule_gen (0 -- 10_000_000))
      prop_locate_matches_bounds;
    Testutil.qtest "slots partition the cycle" schedule_gen
      prop_slots_partition_cycle;
    Testutil.qtest "next_slot_start lands on an owned boundary"
      QCheck2.Gen.(triple schedule_gen (0 -- 100) (0 -- 10_000_000))
      prop_next_slot_start_is_owned;
  ]
