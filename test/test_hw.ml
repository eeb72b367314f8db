module Cpu = Rthv_hw.Cpu
module Ctx_cost = Rthv_hw.Ctx_cost
module Intc = Rthv_hw.Intc
module Platform = Rthv_hw.Platform

let test_cpu_costs () =
  Testutil.check_cycles "1 instr = 1 cycle on ARM9" 128
    (Cpu.instr_cost Cpu.arm926ejs 128);
  Testutil.close "us conversion" 0.64
    (Cpu.us_of_cycles Cpu.arm926ejs 128)

let test_ctx_cost () =
  Testutil.check_cycles "paper context switch = 10000 cycles" 10_000
    (Ctx_cost.cost ~cpu:Cpu.arm926ejs Ctx_cost.arm926ejs_default);
  Testutil.check_cycles "zero model" 0
    (Ctx_cost.cost ~cpu:Cpu.arm926ejs Ctx_cost.zero);
  let half = Ctx_cost.scaled Ctx_cost.arm926ejs_default 0.5 in
  Testutil.check_cycles "scaling" 5_000 (Ctx_cost.cost ~cpu:Cpu.arm926ejs half)

let test_platform_costs () =
  let p = Platform.arm926ejs_200mhz in
  Testutil.check_cycles "C_Mon = 128 instr" 128 (Platform.monitor_cost p);
  Testutil.check_cycles "C_sched = 877 instr" 877 (Platform.sched_manip_cost p);
  Testutil.check_cycles "C_ctx = 50us" (Testutil.us 50) (Platform.ctx_switch_cost p);
  Testutil.check_cycles "ideal platform is free" 0
    (Platform.ctx_switch_cost Platform.ideal)

let test_intc_delivery () =
  let intc = Intc.create ~lines:4 in
  let delivered = ref [] in
  Intc.set_handler intc (fun line -> delivered := line :: !delivered);
  Intc.raise_line intc 2;
  Alcotest.(check (list int)) "delivered" [ 2 ] !delivered;
  Alcotest.(check bool) "pending until ack" true (Intc.is_pending intc 2);
  Intc.ack intc 2;
  Alcotest.(check bool) "acked" false (Intc.is_pending intc 2)

let test_intc_non_counting () =
  let intc = Intc.create ~lines:2 in
  let count = ref 0 in
  Intc.set_handler intc (fun _ -> incr count);
  Intc.raise_line intc 0;
  Intc.raise_line intc 0;
  Intc.raise_line intc 0;
  Alcotest.(check int) "coalesced to one delivery" 1 !count;
  let stats = Intc.stats intc in
  Alcotest.(check int) "raised counted" 3 stats.Intc.raised;
  Alcotest.(check int) "coalesced counted" 2 stats.Intc.coalesced;
  Intc.ack intc 0;
  Intc.raise_line intc 0;
  Alcotest.(check int) "delivers again after ack" 2 !count

let test_intc_masking () =
  let intc = Intc.create ~lines:2 in
  let count = ref 0 in
  Intc.set_handler intc (fun _ -> incr count);
  Intc.mask intc 1;
  Intc.raise_line intc 1;
  Alcotest.(check int) "masked line not delivered" 0 !count;
  Alcotest.(check bool) "pending while masked" true (Intc.is_pending intc 1);
  Intc.unmask intc 1;
  Alcotest.(check int) "delivered on unmask" 1 !count

let test_intc_bad_line () =
  let intc = Intc.create ~lines:2 in
  Alcotest.check_raises "line range checked"
    (Invalid_argument "Intc: line 2 out of range") (fun () ->
      Intc.raise_line intc 2)

let suite =
  [
    Alcotest.test_case "cpu cost model" `Quick test_cpu_costs;
    Alcotest.test_case "context-switch cost model" `Quick test_ctx_cost;
    Alcotest.test_case "platform presets" `Quick test_platform_costs;
    Alcotest.test_case "intc delivery and ack" `Quick test_intc_delivery;
    Alcotest.test_case "intc non-counting flags" `Quick test_intc_non_counting;
    Alcotest.test_case "intc masking" `Quick test_intc_masking;
    Alcotest.test_case "intc line validation" `Quick test_intc_bad_line;
  ]
