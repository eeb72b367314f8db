(* Interval-domain abstract interpreter: consistency of every emitted
   interval (achievable lower end never exceeds the proved upper end) and
   agreement of the rate-policy models with the simulator's admission
   machinery. *)

module Config = Rthv_core.Config
module A = Rthv_check.Absint
module Fleet = Rthv_check.Fleet
module Scenarios = Rthv_check.Scenarios
module Lint = Rthv_check.Lint
module D = Rthv_check.Diagnostic
module Bound = Rthv_analysis.Bound
module DF = Rthv_analysis.Distance_fn

let check_itv msg (itv : A.Itv.t) =
  if not (A.Itv.consistent itv) then
    Alcotest.failf "%s: inconsistent interval [%d, %s]" msg itv.A.Itv.lo
      (match itv.A.Itv.hi with Some h -> string_of_int h | None -> "inf")

let check_analysis name config =
  match Config.validate config with
  | Error _ -> ()
  | Ok () ->
      let ai = A.analyze config in
      if ai.A.cycle <= 0 then Alcotest.failf "%s: cycle %d" name ai.A.cycle;
      let sorted = List.sort_uniq compare ai.A.windows in
      Alcotest.(check (list int)) (name ^ " windows ascending") sorted
        ai.A.windows;
      List.iter
        (fun (sf : A.source_fact) ->
          List.iter
            (fun (w, itv) ->
              check_itv (Printf.sprintf "%s %s adm@%d" name sf.A.sf_name w) itv)
            sf.A.sf_admissions;
          List.iter
            (fun (w, itv) ->
              check_itv (Printf.sprintf "%s %s intf@%d" name sf.A.sf_name w) itv)
            sf.A.sf_interference)
        ai.A.sources;
      List.iter
        (fun (pf : A.partition_fact) ->
          check_itv
            (Printf.sprintf "%s %s interference" name pf.A.pf_name)
            pf.A.pf_interference)
        ai.A.partitions;
      let lo, hi = ai.A.util in
      if lo < 0. then Alcotest.failf "%s: negative util lo" name;
      match hi with
      | Some hi when hi < lo -> Alcotest.failf "%s: util lo > hi" name
      | _ -> ()

let test_scenario_intervals () =
  List.iter (fun (name, build) -> check_analysis name (build ())) Scenarios.all

(* The fleet version is the regression net that caught a token-bucket
   model divergence (the abstract model refilled at the long-term rate, the
   simulator refills one token per period): the seed-97 fleet mixes every
   policy family, and an achievable count above the proved curve is exactly
   how such a divergence surfaces.  Every one of its 501 configs, with the
   guest tasks stripped: no interval reads them, and their busy windows
   take seconds. *)
let test_fleet_intervals () =
  for i = 0 to 500 do
    check_analysis (Printf.sprintf "fleet-%d" i)
      (Testutil.without_tasks (Fleet.gen_config ~seed:97 i))
  done

(* The eq.-(16) gate and RTHV016 split the sources that could claim the
   per-instance bound (active, with a non-degenerate per-instance
   condition): the sole interposer is gated, any other gets RTHV016.  A
   source that cannot claim it gets neither, such as a sole interposer
   whose condition is degenerate. *)
let test_gate_splits_sole_interposer () =
  let degenerate_sole =
    Config.make
      ~partitions:
        [
          Config.partition ~name:"a" ~slot_us:1_000 ();
          Config.partition ~name:"b" ~slot_us:1_000 ();
        ]
      ~sources:
        [
          Config.source ~name:"zero" ~line:0 ~subscriber:0 ~c_th_us:5
            ~c_bh_us:20
            ~interarrivals:(Array.make 10 (Testutil.us 500))
            ~shaping:(Config.Fixed_monitor (DF.unbounded ~l:1))
            ();
        ]
      ()
  in
  let configs =
    ("degenerate-sole", degenerate_sole)
    :: List.map (fun (name, build) -> (name, build ())) Scenarios.all
    @ List.init 501 (fun i ->
          (Printf.sprintf "fleet97-%d" i, Fleet.gen_config ~seed:97 i))
    @ Fleet.gen_batch ~seed:42 ~count:128
  in
  let gated = ref 0 and warned = ref 0 in
  List.iter
    (fun (name, config) ->
      let config = Testutil.without_tasks config in
      match Config.validate config with
      | Error _ -> ()
      | Ok () ->
          let ai = A.analyze config in
          let diags = Lint.analyze_with ai config in
          List.iter
            (fun (sf : A.source_fact) ->
              let claims =
                sf.A.sf_active
                &&
                match Bound.per_instance_condition sf.A.sf_policy with
                | Some fn -> not (Bound.degenerate fn)
                | None -> false
              in
              let rthv016 =
                List.exists
                  (fun (d : D.t) ->
                    d.D.code = "RTHV016" && d.D.loc = "source " ^ sf.A.sf_name)
                  diags
              in
              if sf.A.sf_per_instance then incr gated;
              if rthv016 then incr warned;
              let split =
                if claims then sf.A.sf_per_instance <> rthv016
                else not (sf.A.sf_per_instance || rthv016)
              in
              if not split then
                Alcotest.failf "%s/%s: claims %b, gated %b, RTHV016 %b" name
                  sf.A.sf_name claims sf.A.sf_per_instance rthv016)
            ai.A.sources)
    configs;
  if !gated = 0 || !warned = 0 then
    Alcotest.failf "%d gated and %d RTHV016 sources: both sides must occur"
      !gated !warned

let test_adversarial_schedule_conforms () =
  (* The greedy schedule must itself satisfy the policy it attacks: replay
     each prefix through the same earliest-admission logic. *)
  List.iter
    (fun (name, config) ->
      match Config.validate config with
      | Error _ -> ()
      | Ok () ->
          let ai = A.analyze config in
          List.iter
            (fun (sf : A.source_fact) ->
              let horizon = 2 * ai.A.cycle in
              let schedule =
                A.adversarial_schedule ~policy:sf.A.sf_policy
                  ~footprint:sf.A.sf_footprint ~horizon
              in
              let sorted = List.sort_uniq compare schedule in
              if sorted <> schedule then
                Alcotest.failf "%s/%s: schedule not strictly increasing" name
                  sf.A.sf_name;
              List.iter
                (fun t ->
                  if t < 1 || t > horizon then
                    Alcotest.failf "%s/%s: admission %d outside (0, %d]" name
                      sf.A.sf_name t horizon)
                schedule;
              let rec gaps = function
                | a :: (b :: _ as rest) ->
                    if b - a < sf.A.sf_footprint then
                      Alcotest.failf "%s/%s: gap %d under footprint %d" name
                        sf.A.sf_name (b - a) sf.A.sf_footprint;
                    gaps rest
                | _ -> ()
              in
              gaps schedule)
            ai.A.sources)
    (Fleet.gen_batch ~seed:5 ~count:10)

(* --- the incremental schedule against the list replay (Absint_ref) ------- *)

let rec show_policy = function
  | Bound.Unshaped -> "unshaped"
  | Bound.Shaped_opaque -> "opaque"
  | Bound.Monitored fn -> Format.asprintf "monitored %a" DF.pp fn
  | Bound.Bucketed { capacity; refill } ->
      Printf.sprintf "bucket(capacity %d, refill %d)" capacity refill
  | Bound.Budgeted { per_cycle; cycle } ->
      Printf.sprintf "budget(%d per %d)" per_cycle cycle
  | Bound.Composite ps ->
      "all[" ^ String.concat "; " (List.map show_policy ps) ^ "]"

let same_schedule msg ~policy ~footprint ~horizon =
  Alcotest.(check (list int))
    (Printf.sprintf "%s: %s, footprint %d, horizon %d" msg (show_policy policy)
       footprint horizon)
    (Absint_ref.adversarial_schedule ~policy ~footprint ~horizon)
    (A.adversarial_schedule ~policy ~footprint ~horizon)

(* Monitors of 1-4 entries (one in five all zero, the degenerate
   condition), buckets, budgets, composites nested two deep, and the two
   policies that never predict. *)
let gen_policy =
  let open QCheck2.Gen in
  let monitored =
    let* l = int_range 1 4 in
    let* zero = frequency [ (1, pure true); (4, pure false) ] in
    let+ entries =
      if zero then pure (Array.make l 0)
      else array_size (pure l) (int_range 0 20_000)
    in
    Bound.Monitored (DF.of_entries entries)
  in
  let bucketed =
    let+ capacity = int_range 1 5 and+ refill = int_range 1 20_000 in
    Bound.Bucketed { capacity; refill }
  in
  let budgeted =
    let+ per_cycle = int_range 1 4 and+ cycle = int_range 1 50_000 in
    Bound.Budgeted { per_cycle; cycle }
  in
  let leaf =
    frequency
      [
        (4, monitored);
        (4, bucketed);
        (4, budgeted);
        (1, pure Bound.Unshaped);
        (1, pure Bound.Shaped_opaque);
      ]
  in
  let composite inner =
    map (fun ps -> Bound.Composite ps) (list_size (int_range 0 3) inner)
  in
  frequency
    [ (6, leaf); (3, composite leaf); (1, composite (frequency [ (3, leaf); (1, composite leaf) ])) ]

let test_schedule_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500
       ~name:"schedule equals the list replay (random policies)"
       ~print:(fun (policy, footprint, horizon) ->
         Printf.sprintf "%s, footprint %d, horizon %d" (show_policy policy)
           footprint horizon)
       QCheck2.Gen.(
         triple gen_policy (int_range 100 5_000) (int_range 0 300_000))
       (fun (policy, footprint, horizon) ->
         Absint_ref.adversarial_schedule ~policy ~footprint ~horizon
         = A.adversarial_schedule ~policy ~footprint ~horizon))

(* Every active source of the CI fleet, at the horizon the interval
   analysis uses (three of its longest windows plus one footprint) and at
   the one Witness bursts over (six TDMA cycles).  Guest tasks play no part
   in a schedule, and their busy windows take seconds, so they are
   dropped. *)
let test_fleet_schedules_match_reference () =
  let cases = ref 0 in
  List.iter
    (fun (name, (config : Config.t)) ->
      let config = Testutil.without_tasks config in
      match Config.validate config with
      | Error _ -> ()
      | Ok () ->
          let ai = A.analyze config in
          let max_window = List.fold_left max 0 ai.A.windows in
          List.iter
            (fun (sf : A.source_fact) ->
              if sf.A.sf_active then begin
                let footprint = sf.A.sf_footprint in
                List.iter
                  (fun horizon ->
                    incr cases;
                    same_schedule
                      (name ^ "/" ^ sf.A.sf_name)
                      ~policy:sf.A.sf_policy ~footprint ~horizon)
                  [ (3 * max_window) + footprint; 6 * ai.A.cycle ]
              end)
            ai.A.sources)
    (Fleet.gen_batch ~seed:42 ~count:128);
  if !cases < 200 then Alcotest.failf "only %d fleet schedules compared" !cases

(* A schedule that reaches the 4096-event cap long before its horizon. *)
let test_schedule_cut_at_cap () =
  let horizon = max_int / 2 in
  List.iter
    (fun (policy, footprint) ->
      let s = A.adversarial_schedule ~policy ~footprint ~horizon in
      Alcotest.(check int) (show_policy policy ^ ": capped") 4096 (List.length s);
      same_schedule "capped" ~policy ~footprint ~horizon)
    [
      (Bound.Monitored (DF.of_entries [| 150; 400 |]), 100);
      (Bound.Bucketed { capacity = 3; refill = 250 }, 100);
    ]

(* The replay reversed and refolded the whole history at every token-bucket
   step, ~3n words per step; the incremental meter allocates the returned
   list and a constant. *)
let test_schedule_allocation_linear () =
  let policy = Bound.Bucketed { capacity = 1; refill = 100 } in
  let footprint = 100 and horizon = max_int / 2 in
  ignore (A.adversarial_schedule ~policy ~footprint ~horizon : int list);
  let before = Gc.minor_words () in
  let s = A.adversarial_schedule ~policy ~footprint ~horizon in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "4096 events" 4096 (List.length s);
  if words > 8. *. 4096. then
    Alcotest.failf "4096-event bucket schedule allocated %.0f words (> 8/event)"
      words

let suite =
  [
    Alcotest.test_case "scenario intervals consistent" `Quick
      test_scenario_intervals;
    Alcotest.test_case "fleet intervals consistent" `Quick test_fleet_intervals;
    Alcotest.test_case "gate and RTHV016 split the sources" `Quick
      test_gate_splits_sole_interposer;
    Alcotest.test_case "adversarial schedules well-formed" `Quick
      test_adversarial_schedule_conforms;
    test_schedule_matches_reference;
    Alcotest.test_case "fleet schedules equal the list replay" `Quick
      test_fleet_schedules_match_reference;
    Alcotest.test_case "schedule cut at the 4096-event cap" `Quick
      test_schedule_cut_at_cap;
    Alcotest.test_case "bucket schedule allocates O(n) words" `Quick
      test_schedule_allocation_linear;
  ]
