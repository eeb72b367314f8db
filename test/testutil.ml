(* Shared helpers for the test suites. *)

module Cycles = Rthv_engine.Cycles

let cycles : Cycles.t Alcotest.testable =
  Alcotest.testable Cycles.pp Int.equal

let check_cycles = Alcotest.check cycles

(* Approximate float equality with an absolute tolerance. *)
let close ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %g, got %g (eps %g)" msg expected actual eps

(* Relative closeness for statistical checks. *)
let close_rel ~rel msg expected actual =
  let bound = Float.abs expected *. rel in
  if Float.abs (expected -. actual) > bound then
    Alcotest.failf "%s: expected %g +/- %.0f%%, got %g" msg expected
      (100. *. rel) actual

let qtest ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

let us = Cycles.of_us

(* [needle] occurs in [haystack]. *)
let contains haystack needle =
  let n = String.length needle in
  let rec at i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || at (i + 1))
  in
  at 0

(* Run [f] on a fresh temporary file path, removed afterwards. *)
let with_temp f =
  let path = Filename.temp_file "rthv_test" ".rts" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* A span's timestamps follow its causal chain. *)
let monotone (sp : Rthv_core.Irq_fold.span) =
  sp.arrival <= sp.top_start
  && sp.top_start <= sp.top_end
  && sp.top_end <= sp.decision
  && sp.decision <= sp.bh_start
  && sp.bh_start <= sp.completion

(* A monitored source whose arrivals (every 500 us) violate its 3 ms d_min;
   run it under {!admit_all}, and the trace oracle derives RTHV102 from the
   declared shaping. *)
let violating_config () =
  let module Config = Rthv_core.Config in
  Config.make
    ~partitions:
      [
        Config.partition ~name:"a" ~slot_us:5_000 ();
        Config.partition ~name:"b" ~slot_us:5_000 ();
      ]
    ~sources:
      [
        Config.source ~name:"nic" ~line:0 ~subscriber:1 ~c_th_us:5 ~c_bh_us:40
          ~interarrivals:(Rthv_workload.Gen.constant ~period:(us 500) ~count:50)
          ~shaping:
            (Config.Fixed_monitor (Rthv_analysis.Distance_fn.d_min (us 3_000)))
          ();
      ]
    ()

(* The [~policies] override that admits every activation of
   {!violating_config}'s source. *)
let admit_all () =
  [
    ( "nic",
      Rthv_core.Admission.custom ~name:"admit-all"
        ~decide:(fun _ -> true)
        ~commit:(fun _ -> ())
        () );
  ]

(* A flight dump whose ring dropped its first 6 entries: an IRQ on line 0
   raised at 5000 us, a slot switch from partition 1 to 2 at 6000 us, then
   the IRQ's completion.  Nothing in it says who owned the slot before the
   switch. *)
let truncated_flight_dump =
  String.concat "\n"
    [
      {|{"ev":"meta","schema":"rthv-flight/1","reason":"test","recorded":10,"dropped":6,"capacity":4}|};
      {|{"t":1000000,"ev":"irq_raised","irq":7,"line":0}|};
      {|{"t":1000000,"ev":"top_handler","irq":7,"line":0}|};
      {|{"t":1200000,"ev":"slot_switch","from":1,"to":2}|};
      {|{"t":1210000,"ev":"bottom_handler_done","irq":7,"partition":1}|};
    ]
  ^ "\n"

(* The eleven certify artifacts whose MD5s test_certify pins, as
   [(name, artifact)]: every scenario's, then the first four configs of
   the seed-42 fleet.  Built once per run, since those four configs' guest
   task sets take seconds of busy-window analysis, and shared by the
   suites that read them. *)
let pinned_artifacts =
  lazy
    (List.map
       (fun (name, config) ->
         match Rthv_check.Certify.build_string ~scenario:name config with
         | Ok s -> (name, s)
         | Error e -> Alcotest.failf "%s: build failed: %s" name e)
       (List.map (fun (name, make) -> (name, make ())) Rthv_check.Scenarios.all
       @ Rthv_check.Fleet.gen_batch ~seed:42 ~count:4))
