module Throttle = Rthv_core.Throttle
module Config = Rthv_core.Config
module Hyp_sim = Rthv_core.Hyp_sim
module Irq_record = Rthv_core.Irq_record
module Independence = Rthv_analysis.Independence
module Gen = Rthv_workload.Gen

let us = Testutil.us

let test_starts_full () =
  let t = Throttle.create ~capacity:3 ~refill:(us 100) in
  Alcotest.(check int) "full at creation" 3 (Throttle.level t);
  Alcotest.(check bool) "token available" true (Throttle.check t 0)

let test_burst_then_block () =
  let t = Throttle.create ~capacity:2 ~refill:(us 100) in
  Throttle.admit t 0;
  Throttle.admit t 0;
  Alcotest.(check bool) "bucket drained" false (Throttle.check t 0);
  Alcotest.(check bool) "still dry just before refill" false
    (Throttle.check t (us 100 - 1));
  Alcotest.(check bool) "one token after a period" true
    (Throttle.check t (us 100))

let test_refill_caps_at_capacity () =
  let t = Throttle.create ~capacity:2 ~refill:(us 100) in
  Throttle.admit t 0;
  Throttle.admit t 0;
  ignore (Throttle.check t (us 10_000) : bool);
  Alcotest.(check int) "level capped" 2 (Throttle.level t)

let test_refill_remainder_preserved () =
  (* Draining at t=0, then checking at 1.5 periods: one token earned, the
     half period of progress must not be lost for the second token. *)
  let t = Throttle.create ~capacity:2 ~refill:(us 100) in
  Throttle.admit t 0;
  Throttle.admit t 0;
  ignore (Throttle.check t (us 150) : bool);
  Alcotest.(check int) "one token at 1.5 periods" 1 (Throttle.level t);
  Alcotest.(check bool) "second lands at 2 periods, not 2.5" true
    (Throttle.check t (us 200) && Throttle.level t = 2)

let test_admit_guard () =
  let t = Throttle.create ~capacity:1 ~refill:(us 100) in
  Throttle.admit t 0;
  Alcotest.check_raises "no token"
    (Invalid_argument "Throttle.admit: no token available") (fun () ->
      Throttle.admit t 1)

let test_time_monotonicity () =
  let t = Throttle.create ~capacity:1 ~refill:(us 100) in
  ignore (Throttle.check t (us 500) : bool);
  Alcotest.check_raises "time cannot rewind"
    (Invalid_argument "Throttle: time must be non-decreasing") (fun () ->
      ignore (Throttle.check t (us 100) : bool))

let test_creation_guards () =
  Alcotest.check_raises "capacity"
    (Invalid_argument "Throttle.create: capacity must be >= 1") (fun () ->
      ignore (Throttle.create ~capacity:0 ~refill:1 : Throttle.t));
  Alcotest.check_raises "refill"
    (Invalid_argument "Throttle.create: refill must be >= 1") (fun () ->
      ignore (Throttle.create ~capacity:1 ~refill:0 : Throttle.t))

(* Property: the admitted stream over any simulated window never exceeds the
   affine bound. *)
let prop_admissions_within_affine_bound (capacity, refill_us, gaps) =
  let capacity = 1 + (capacity mod 5) in
  let refill = us (1 + refill_us) in
  let t = Throttle.create ~capacity ~refill in
  let admitted = ref [] in
  let now = ref 0 in
  List.iter
    (fun gap ->
      now := !now + gap;
      if Throttle.check t !now then begin
        Throttle.admit t !now;
        admitted := !now :: !admitted
      end)
    gaps;
  let admitted = List.rev !admitted in
  (* Check every window between two admissions. *)
  let arr = Array.of_list admitted in
  let n = Array.length arr in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let window = arr.(j) - arr.(i) in
      let count = j - i + 1 in
      if count > capacity + (window / refill) + 1 then ok := false
    done
  done;
  !ok

(* Simulation integration: a burst of [capacity] back-to-back IRQs is
   interposed by the bucket but (all except the first) denied by an
   equal-rate d_min monitor. *)
let burst_scenario shaping =
  let partitions =
    [
      Config.partition ~name:"P1" ~slot_us:6_000 ();
      Config.partition ~name:"P2" ~slot_us:6_000 ();
    ]
  in
  (* Three tight bursts of 3 IRQs (400us inner), bursts 8000us apart. *)
  let interarrivals =
    [| us 1_000; us 400; us 400; us 8_000; us 400; us 400; us 8_000; us 400; us 400 |]
  in
  let config =
    Config.make ~partitions
      ~sources:
        [
          Config.source ~name:"bursty" ~line:0 ~subscriber:1 ~c_th_us:5
            ~c_bh_us:50 ~interarrivals ~shaping ();
        ]
      ()
  in
  let sim = Hyp_sim.create config in
  Hyp_sim.run sim;
  Hyp_sim.stats sim

let test_bucket_admits_bursts_monitor_does_not () =
  let refill = us 2_800 in
  (* Same long-term rate: one admission per 2800us on average. *)
  let bucket =
    burst_scenario (Config.Token_bucket { capacity = 3; refill })
  in
  let monitor =
    burst_scenario
      (Config.Fixed_monitor (Rthv_analysis.Distance_fn.d_min refill))
  in
  Alcotest.(check bool) "bucket interposes the whole burst" true
    (bucket.Hyp_sim.interposed > monitor.Hyp_sim.interposed);
  Alcotest.(check int) "every burst IRQ interposed by the bucket" 0
    bucket.Hyp_sim.delayed

let test_sim_interference_within_affine_bound () =
  let capacity = 2 and refill = us 1_000 in
  let interarrivals = Gen.exponential ~seed:5 ~mean:(us 800) ~count:800 in
  let config =
    Config.make
      ~partitions:
        [
          Config.partition ~name:"P1" ~slot_us:6_000 ();
          Config.partition ~name:"P2" ~slot_us:6_000 ();
          Config.partition ~name:"HK" ~slot_us:2_000 ();
        ]
      ~sources:
        [
          Config.source ~name:"irq" ~line:0 ~subscriber:1 ~c_th_us:5
            ~c_bh_us:50 ~interarrivals
            ~shaping:(Config.Token_bucket { capacity; refill })
            ();
        ]
      ()
  in
  let sim = Hyp_sim.create config in
  Hyp_sim.run sim;
  let stats = Hyp_sim.stats sim in
  let c_bh_eff = us 50 + 877 + (2 * us 50) in
  let bound_curve =
    Independence.token_bucket_bound ~capacity ~refill ~c_bh_eff
  in
  Array.iteri
    (fun i slot_us ->
      (* Affine bound plus one carry-in spill. *)
      let bound = bound_curve (us slot_us) + c_bh_eff in
      if stats.Hyp_sim.stolen_slot_max.(i) > bound then
        Alcotest.failf "partition %d exceeds the affine bound" i)
    [| 6_000; 6_000; 2_000 |]

let suite =
  [
    Alcotest.test_case "starts full" `Quick test_starts_full;
    Alcotest.test_case "burst then block" `Quick test_burst_then_block;
    Alcotest.test_case "refill caps" `Quick test_refill_caps_at_capacity;
    Alcotest.test_case "refill remainder" `Quick test_refill_remainder_preserved;
    Alcotest.test_case "admit guard" `Quick test_admit_guard;
    Alcotest.test_case "time monotonicity" `Quick test_time_monotonicity;
    Alcotest.test_case "creation guards" `Quick test_creation_guards;
    Testutil.qtest "admissions within the affine bound"
      QCheck2.Gen.(
        triple (0 -- 10) (0 -- 5_000) (list_size (0 -- 150) (0 -- 500_000)))
      prop_admissions_within_affine_bound;
    Alcotest.test_case "bucket vs monitor on bursts" `Quick
      test_bucket_admits_bursts_monitor_does_not;
    Alcotest.test_case "simulated interference within affine bound" `Quick
      test_sim_interference_within_affine_bound;
  ]
