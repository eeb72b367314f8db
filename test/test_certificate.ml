module C = Rthv_analysis.Certificate
module GS = Rthv_analysis.Guest_sched
module DF = Rthv_analysis.Distance_fn

let us = Testutil.us

let task ~name ~period_us ~wcet_us =
  { GS.name; period = us period_us; wcet = us wcet_us; priority = 0 }

let partitions ~wcet_us =
  [
    {
      C.p_index = 0;
      p_name = "ctl";
      slot = us 6_000;
      tasks = [ task ~name:"loop" ~period_us:28_000 ~wcet_us ];
    };
    { C.p_index = 1; p_name = "io"; slot = us 6_000; tasks = [] };
    { C.p_index = 2; p_name = "hk"; slot = us 2_000; tasks = [] };
  ]

let grant ~d_min_us =
  {
    C.source_name = "nic";
    monitor = DF.d_min (us d_min_us);
    c_bh_eff = us 154;
    subscriber = 1;
  }

let check ?(wcet_us = 1_000) ?(d_min_us = 1_544) () =
  C.check ~cycle:(us 14_000) ~c_ctx:(us 50)
    ~partitions:(partitions ~wcet_us)
    ~grants:[ grant ~d_min_us ]

let test_holds_for_light_task () =
  let cert = check () in
  Alcotest.(check bool) "certificate holds" true cert.C.holds;
  Alcotest.(check int) "one verdict per partition" 3
    (List.length cert.C.verdicts);
  List.iter
    (fun v -> Alcotest.(check bool) "each partition schedulable" true v.C.schedulable)
    cert.C.verdicts

let test_budget_is_eq14_plus_carry_in () =
  let cert = check () in
  let v0 = List.nth cert.C.verdicts 0 in
  (* eta+(6000us @ d_min 1544us) = 4 admissions * 154us + 154us carry-in. *)
  Testutil.check_cycles "b_Ip" (us ((4 * 154) + 154)) v0.C.interference_budget;
  Testutil.close ~eps:1e-3 "10% utilisation loss" 0.0997 v0.C.utilisation_loss

let test_fails_when_task_too_heavy () =
  (* 5800us of work in a 5950us effective slot per 14ms cycle: isolated it
     barely fits nothing once the TDMA gap is paid; must fail. *)
  let cert = check ~wcet_us:12_000 () in
  Alcotest.(check bool) "certificate rejected" false cert.C.holds;
  let v0 = List.nth cert.C.verdicts 0 in
  Alcotest.(check bool) "partition 0 flagged" false v0.C.schedulable

let test_marginal_task_rejected_only_with_grant () =
  (* A task that is schedulable in isolation but broken by the grant's
     interference: find it by tightening wcet until isolation passes and the
     granted system fails. *)
  let isolated_ok wcet_us =
    let cert =
      C.check ~cycle:(us 14_000) ~c_ctx:(us 50)
        ~partitions:(partitions ~wcet_us) ~grants:[]
    in
    cert.C.holds
  in
  let granted_ok wcet_us =
    (check ~wcet_us ~d_min_us:400 ()).C.holds
  in
  (* With d_min = 400us the grant steals ~38% long-term. *)
  let wcet = 10_000 in
  Alcotest.(check bool) "isolated fits" true (isolated_ok wcet);
  Alcotest.(check bool) "grant breaks it" false (granted_ok wcet)

let test_degenerate_slot () =
  let bad =
    C.check ~cycle:(us 14_000) ~c_ctx:(us 50)
      ~partitions:
        [ { C.p_index = 0; p_name = "tiny"; slot = us 10; tasks = [] } ]
      ~grants:[]
  in
  (* A slot that cannot even cover the entry context switch is flagged as a
     configuration error, tasks or not. *)
  Alcotest.(check bool) "degenerate slot flagged" false bad.C.holds;
  let with_task =
    C.check ~cycle:(us 14_000) ~c_ctx:(us 50)
      ~partitions:
        [
          {
            C.p_index = 0;
            p_name = "tiny";
            slot = us 10;
            tasks = [ task ~name:"t" ~period_us:1_000 ~wcet_us:1 ];
          };
        ]
      ~grants:[]
  in
  Alcotest.(check bool) "slot < C_ctx rejected" false with_task.C.holds

let test_pp_renders () =
  let cert = check () in
  let out = Format.asprintf "%a" C.pp cert in
  let contains needle =
    let hl = String.length out and nl = String.length needle in
    let rec scan i = i + nl <= hl && (String.sub out i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "mentions HOLDS" true (contains "certificate HOLDS");
  Alcotest.(check bool) "mentions the grant" true (contains "nic")

(* A budget past max_int cycles saturates: the partition is NOT
   SCHEDULABLE and its tasks are not analysed, where the wrapped sum used
   to come out negative and pass. *)
let test_budget_overflow () =
  let slot = 2305843009213693800 in
  let cert =
    C.check ~cycle:(2 * slot) ~c_ctx:(us 50)
      ~partitions:
        [
          {
            C.p_index = 0;
            p_name = "a";
            slot;
            tasks = [ task ~name:"t" ~period_us:1_000 ~wcet_us:5 ];
          };
          { C.p_index = 1; p_name = "b"; slot; tasks = [] };
        ]
      ~grants:
        [
          {
            C.source_name = "x";
            monitor = DF.d_min 200;
            c_bh_eff = slot;
            subscriber = 0;
          };
        ]
  in
  Alcotest.(check bool) "does not hold" false cert.C.holds;
  List.iter
    (fun (v : C.verdict) ->
      Alcotest.(check int) "saturated budget" max_int v.C.interference_budget;
      Alcotest.(check bool) "not schedulable" false v.C.schedulable)
    cert.C.verdicts;
  match (List.hd cert.C.verdicts).C.task_results with
  | [ (_, Error "interference budget overflows") ] -> ()
  | _ -> Alcotest.fail "task not reported as overflowing"

let suite =
  [
    Alcotest.test_case "holds for a light task set" `Quick
      test_holds_for_light_task;
    Alcotest.test_case "budget = eq.(14) + carry-in" `Quick
      test_budget_is_eq14_plus_carry_in;
    Alcotest.test_case "rejects an overloaded partition" `Quick
      test_fails_when_task_too_heavy;
    Alcotest.test_case "grant-induced failure detected" `Quick
      test_marginal_task_rejected_only_with_grant;
    Alcotest.test_case "degenerate slot" `Quick test_degenerate_slot;
    Alcotest.test_case "rendering" `Quick test_pp_renders;
    Alcotest.test_case "budget past max_int" `Quick test_budget_overflow;
  ]
