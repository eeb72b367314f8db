module Cycles = Rthv_engine.Cycles

let test_conversions () =
  Testutil.check_cycles "1us = 200 cycles" 200 (Cycles.of_us 1);
  Testutil.check_cycles "1ms" 200_000 (Cycles.of_ms 1);
  Testutil.check_cycles "instructions are cycles" 877 (Cycles.of_instr 877);
  Testutil.close "to_us roundtrip" 14000. (Cycles.to_us (Cycles.of_us 14000));
  Alcotest.(check int) "to_us_int floors" 4 (Cycles.to_us_int 999)

let test_arithmetic () =
  let open Cycles in
  Testutil.check_cycles "add" 300 (of_us 1 + 100);
  Testutil.check_cycles "sub" 100 (of_us 1 - 100);
  Testutil.check_cycles "scale" 600 (of_us 1 * 3);
  Testutil.check_cycles "min" 5 (min 5 7);
  Testutil.check_cycles "max" 7 (max 5 7)

let test_compare_and_pp () =
  Alcotest.(check bool) "compare orders" true (Cycles.compare 1 2 < 0);
  Alcotest.(check string)
    "pp renders us" "150.50us"
    (Format.asprintf "%a" Cycles.pp 30_100)

let suite =
  [
    Alcotest.test_case "unit conversions" `Quick test_conversions;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "compare and pp" `Quick test_compare_and_pp;
    Testutil.qtest "of_us/to_us_int roundtrip"
      QCheck2.Gen.(0 -- 1_000_000)
      (fun n -> Cycles.to_us_int (Cycles.of_us n) = n);
    Testutil.qtest "addition is commutative on durations"
      QCheck2.Gen.(pair (0 -- 1_000_000) (0 -- 1_000_000))
      (fun (a, b) -> Cycles.( + ) a b = Cycles.( + ) b a);
  ]
