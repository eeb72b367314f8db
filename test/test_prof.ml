(* Hierarchical phase profiler: zero-cost disabled path, context-tree
   accounting against a fake clock, exception safety, deterministic
   absorb/merge (byte-identical at any job count), and the JSON codec. *)

module Prof = Rthv_obs.Prof
module Json = Rthv_obs.Json
module Par = Rthv_par.Par

(* Test-only phases; interning is process-wide and idempotent. *)
let ph_a = Prof.phase "t_alpha"
let ph_b = Prof.phase "t_beta"
let ph_c = Prof.phase "t_gamma"

let test_phase_interning () =
  Alcotest.(check string) "name round-trip" "t_alpha" (Prof.phase_name ph_a);
  Alcotest.(check bool) "idempotent" true (Prof.phase "t_alpha" = ph_a)

let test_disabled_inert () =
  let p = Prof.disabled in
  Alcotest.(check bool) "disabled" false (Prof.enabled p);
  (* Warm up, then the steady-state guard must not allocate at all. *)
  for _ = 1 to 10 do
    Prof.enter p ph_a;
    Prof.leave p
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Prof.enter p ph_a;
    Prof.leave p
  done;
  let after = Gc.minor_words () in
  Testutil.close "no allocation on the disabled path" 0. (after -. before);
  Alcotest.(check int) "no rows" 0 (List.length (Prof.rows p));
  Alcotest.(check int) "depth 0" 0 (Prof.depth p)

let test_nesting_accounting () =
  let now = ref 0. in
  let p = Prof.create ~clock:(fun () -> !now) () in
  Prof.enter p ph_a;
  now := !now +. 10.;
  Prof.enter p ph_b;
  now := !now +. 5.;
  Prof.leave p;
  now := !now +. 1.;
  Prof.enter p ph_b;
  now := !now +. 2.;
  Prof.leave p;
  Prof.leave p;
  (* Second top-level scope of a different phase. *)
  Prof.span p ph_c (fun () -> now := !now +. 4.);
  Alcotest.(check int) "depth back to 0" 0 (Prof.depth p);
  let rows = Prof.rows p in
  let find path =
    match List.find_opt (fun r -> r.Prof.r_path = path) rows with
    | Some r -> r
    | None -> Alcotest.failf "missing row %s" path
  in
  let a = find "t_alpha" in
  Alcotest.(check int) "a calls" 1 a.Prof.r_calls;
  Alcotest.(check int) "a depth" 1 a.Prof.r_depth;
  Testutil.close "a total" 18. a.Prof.r_total_ns;
  Testutil.close "a self = total - children" 11. a.Prof.r_self_ns;
  let b = find "t_alpha/t_beta" in
  Alcotest.(check int) "b calls" 2 b.Prof.r_calls;
  Alcotest.(check int) "b depth" 2 b.Prof.r_depth;
  Alcotest.(check string) "b leaf name" "t_beta" b.Prof.r_name;
  Testutil.close "b total" 7. b.Prof.r_total_ns;
  Testutil.close "b self = total (no children)" 7. b.Prof.r_self_ns;
  let c = find "t_gamma" in
  Testutil.close "c total" 4. c.Prof.r_total_ns;
  (* Preorder with sorted children: t_alpha subtree before t_gamma. *)
  Alcotest.(check (list string)) "row order"
    [ "t_alpha"; "t_alpha/t_beta"; "t_gamma" ]
    (List.map (fun r -> r.Prof.r_path) rows)

let test_span_exception_safety () =
  let p = Prof.create ~clock:(fun () -> 0.) () in
  (try
     Prof.span p ph_a (fun () ->
         Prof.span p ph_b (fun () -> failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check int) "depth unwound" 0 (Prof.depth p);
  let paths = List.map (fun r -> r.Prof.r_path) (Prof.rows p) in
  Alcotest.(check (list string)) "both scopes recorded"
    [ "t_alpha"; "t_alpha/t_beta" ] paths

let test_leave_on_empty_stack () =
  let p = Prof.create ~clock:(fun () -> 0.) () in
  Prof.leave p;
  Alcotest.(check int) "still at depth 0" 0 (Prof.depth p);
  Prof.span p ph_a Fun.id;
  Alcotest.(check int) "usable afterwards" 1
    (List.length (Prof.rows p))

let test_absorb () =
  let now = ref 0. in
  let into = Prof.create ~clock:(fun () -> !now) () in
  Prof.enter into ph_a;
  now := !now +. 3.;
  Prof.leave into;
  let w = Prof.spawn into in
  Prof.enter w ph_a;
  now := !now +. 7.;
  Prof.enter w ph_b;
  now := !now +. 2.;
  Prof.leave w;
  Prof.leave w;
  Prof.absorb ~into w;
  let find path =
    List.find (fun r -> r.Prof.r_path = path) (Prof.rows into)
  in
  let a = find "t_alpha" in
  Alcotest.(check int) "calls summed" 2 a.Prof.r_calls;
  Testutil.close "total summed" 12. a.Prof.r_total_ns;
  let b = find "t_alpha/t_beta" in
  Alcotest.(check int) "new path adopted" 1 b.Prof.r_calls

(* The Par ?profile plumbing: per-task spawned instances absorbed in
   task-index order.  With a constant clock the ns are all zero and the
   words are the tasks' own deterministic allocations, so the aggregate
   document must be byte-identical at any job count. *)
let merged_profile_json jobs =
  let into = Prof.create ~clock:(fun () -> 0.) () in
  let pool = Par.create ~jobs () in
  ignore
    (Par.init ~pool ~profile:into 8 (fun i ->
         let p = Prof.installed () in
         Prof.span p ph_a (fun () ->
             for _ = 0 to i do
               Prof.span p ph_b (fun () -> Sys.opaque_identity (ignore [ i ]))
             done);
         i)
      : int list);
  Json.to_string (Prof.to_json into)

let test_merge_byte_identical () =
  let j1 = merged_profile_json 1 in
  let j4 = merged_profile_json 4 in
  Alcotest.(check string) "jobs=1 and jobs=4 merge identically" j1 j4;
  Alcotest.(check bool) "profile is non-trivial" true
    (String.length j1 > String.length {|{"schema":"rthv-profile/1"}|})

let test_json_roundtrip () =
  let now = ref 0. in
  let p = Prof.create ~clock:(fun () -> !now) () in
  Prof.span p ph_a (fun () ->
      now := !now +. 5.;
      Prof.span p ph_b (fun () -> now := !now +. 2.));
  let rows = Prof.rows p in
  match Prof.of_json (Prof.to_json p) with
  | Error msg -> Alcotest.failf "of_json: %s" msg
  | Ok parsed ->
      Alcotest.(check int) "row count" (List.length rows)
        (List.length parsed);
      List.iter2
        (fun (r : Prof.row) (q : Prof.row) ->
          Alcotest.(check string) "path" r.Prof.r_path q.Prof.r_path;
          Alcotest.(check int) "calls" r.Prof.r_calls q.Prof.r_calls;
          Testutil.close "total_ns" r.Prof.r_total_ns q.Prof.r_total_ns;
          Testutil.close "self_ns" r.Prof.r_self_ns q.Prof.r_self_ns;
          Testutil.close "words" r.Prof.r_words q.Prof.r_words)
        rows parsed

let test_reset () =
  let p = Prof.create ~clock:(fun () -> 0.) () in
  Prof.span p ph_a Fun.id;
  Prof.reset p;
  Alcotest.(check int) "rows dropped" 0 (List.length (Prof.rows p));
  Prof.span p ph_b Fun.id;
  Alcotest.(check int) "usable after reset" 1 (List.length (Prof.rows p))

let test_install_domain_local () =
  let p = Prof.create ~clock:(fun () -> 0.) () in
  Alcotest.(check bool) "nothing installed" true
    (Prof.installed () == Prof.disabled);
  Prof.with_profiler p (fun () ->
      Alcotest.(check bool) "installed inside" true (Prof.installed () == p));
  Alcotest.(check bool) "restored" true (Prof.installed () == Prof.disabled)

(* The node and stack arrays start at 16 entries and double.  Phases are
   zero-padded so their sorted order is their number. *)
let cap_phase i = Prof.phase (Printf.sprintf "t_cap%02d" i)

let find_row rows path =
  match List.find_opt (fun r -> r.Prof.r_path = path) rows with
  | Some r -> r
  | None -> Alcotest.failf "missing row %s" path

(* [n] sibling phases, phase i open for i ns, all profiled twice: the
   second pass must find every node the first one made, across the
   growth. *)
let check_siblings n =
  let now = ref 0. in
  let p = Prof.create ~clock:(fun () -> !now) () in
  for _ = 1 to 2 do
    for i = 1 to n do
      Prof.enter p (cap_phase i);
      now := !now +. float_of_int i;
      Prof.leave p
    done
  done;
  let rows = Prof.rows p in
  Alcotest.(check int) (Printf.sprintf "%d rows" n) n (List.length rows);
  for i = 1 to n do
    let r = find_row rows (Printf.sprintf "t_cap%02d" i) in
    let label what = Printf.sprintf "%d siblings: phase %d %s" n i what in
    Alcotest.(check int) (label "calls") 2 r.Prof.r_calls;
    Alcotest.(check int) (label "depth") 1 r.Prof.r_depth;
    Testutil.close (label "total") (float_of_int (2 * i)) r.Prof.r_total_ns;
    Testutil.close (label "self") (float_of_int (2 * i)) r.Prof.r_self_ns
  done

(* An [n]-deep chain, twice: depth k spends k ns before it opens depth
   k + 1, so its self time is k and its total is k + ... + n. *)
let check_nesting n =
  let now = ref 0. in
  let p = Prof.create ~clock:(fun () -> !now) () in
  for _ = 1 to 2 do
    for k = 1 to n do
      Prof.enter p (cap_phase k);
      now := !now +. float_of_int k
    done;
    Alcotest.(check int) (Printf.sprintf "%d deep" n) n (Prof.depth p);
    for _ = 1 to n do
      Prof.leave p
    done
  done;
  Alcotest.(check int) "depth back to 0" 0 (Prof.depth p);
  let rows = Prof.rows p in
  Alcotest.(check int) (Printf.sprintf "%d rows" n) n (List.length rows);
  for k = 1 to n do
    let path =
      String.concat "/" (List.init k (fun j -> Printf.sprintf "t_cap%02d" (j + 1)))
    in
    let r = find_row rows path in
    let label what = Printf.sprintf "%d deep: depth %d %s" n k what in
    let total = (n * (n + 1) / 2) - (k * (k - 1) / 2) in
    Alcotest.(check int) (label "calls") 2 r.Prof.r_calls;
    Alcotest.(check int) (label "depth") k r.Prof.r_depth;
    Testutil.close (label "total") (float_of_int (2 * total)) r.Prof.r_total_ns;
    Testutil.close (label "self") (float_of_int (2 * k)) r.Prof.r_self_ns
  done

let test_capacity_boundary () =
  check_siblings 16;
  check_siblings 17;
  check_nesting 16;
  check_nesting 17

(* Property: for any well-nested scope script, depth returns to zero and
   every row's self time is non-negative and bounded by its total. *)
let prop_rows_consistent script =
  let now = ref 0. in
  let p = Prof.create ~clock:(fun () -> !now) () in
  let phases = [| ph_a; ph_b; ph_c |] in
  List.iter
    (fun (pick, dt) ->
      now := !now +. float_of_int dt;
      if pick < 3 then Prof.enter p phases.(pick) else Prof.leave p)
    script;
  for _ = 1 to Prof.depth p do
    Prof.leave p
  done;
  List.for_all
    (fun r ->
      r.Prof.r_self_ns >= -1e-9
      && r.Prof.r_self_ns <= r.Prof.r_total_ns +. 1e-9
      && r.Prof.r_calls > 0)
    (Prof.rows p)

let suite =
  [
    Alcotest.test_case "phase interning" `Quick test_phase_interning;
    Alcotest.test_case "disabled path is inert and allocation-free" `Quick
      test_disabled_inert;
    Alcotest.test_case "nested accounting against a fake clock" `Quick
      test_nesting_accounting;
    Alcotest.test_case "span exception safety" `Quick
      test_span_exception_safety;
    Alcotest.test_case "leave on empty stack is a no-op" `Quick
      test_leave_on_empty_stack;
    Alcotest.test_case "absorb merges by phase path" `Quick test_absorb;
    Alcotest.test_case "Par merge byte-identical at jobs 1 vs 4" `Quick
      test_merge_byte_identical;
    Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "16 and 17 phases, siblings and nested" `Quick
      test_capacity_boundary;
    Alcotest.test_case "domain-local install" `Quick
      test_install_domain_local;
    Testutil.qtest "random scope scripts keep rows consistent"
      QCheck2.Gen.(small_list (pair (0 -- 3) (0 -- 10)))
      prop_rows_consistent;
  ]
