(* Proof-carrying certificates: every artifact the builder emits must pass
   the independent recheck, and any single-byte tamper must be detected.
   SARIF export is checked for structural validity against the same
   diagnostics. *)

module J = Rthv_obs.Json
module Certify = Rthv_check.Certify
module Sarif = Rthv_check.Sarif
module Fleet = Rthv_check.Fleet
module Lint = Rthv_check.Lint
module Scenarios = Rthv_check.Scenarios

let build name config =
  match Certify.build_string ~scenario:name config with
  | Ok s -> s
  | Error e -> Alcotest.failf "%s: build failed: %s" name e

(* Flip one content digit (not punctuation, not the digest's own hex) so
   the mutation changes a serialized number the digest covers. *)
let tamper s =
  let cut =
    match String.index_opt s '{' with Some i -> i + 1 | None -> 0
  in
  let rec find i =
    if i >= String.length s then Alcotest.fail "nothing to tamper with"
    else
      match s.[i] with
      | '0' .. '9' -> i
      | _ -> find (i + 1)
  in
  let i = find cut in
  let b = Bytes.of_string s in
  Bytes.set b i (if s.[i] = '5' then '6' else '5');
  Bytes.to_string b

(* MD5 of every artifact the recheck tests build, as serialized before
   witness replays grew their trace rings on demand and shared one interval
   analysis: a performance change to the certification pipeline must leave
   every artifact byte-identical. *)
let artifact_md5 =
  [
    ("quickstart", "b9c61f4edcf6a01d7810899612d3ad25");
    ("conformant", "d696a11190b2ed3b27967d64366a54d8");
    ("avionics_ima", "dc56fa2d53412bf275c7b2f7a1ab20b1");
    ("automotive_ecu", "6e820b2604a4da0fb375dea0e3c3ef26");
    ("mixed_policies", "4a08f09906c6b0e6eb8ef8722287a33b");
    ("demo_bad", "1d008fe25bfc56f26da05dd0d03b4785");
    ("demo_policy_bad", "29c08bd8b423bf8129eb9523f17c6c31");
    ("cfg-0000", "3337149f48754f471ad21a1568fe040e");
    ("cfg-0001", "efef0918ab278a0832b989097a5ead15");
    ("cfg-0002", "b114370b48907305eab2c68b86c1ade8");
    ("cfg-0003", "668e71a49abf59a3f1aea38cd79210c9");
  ]

let check_md5 name s =
  match List.assoc_opt name artifact_md5 with
  | None -> Alcotest.failf "%s: no pinned artifact digest" name
  | Some md5 ->
      Alcotest.(check string)
        (name ^ " artifact byte-identical") md5
        (Digest.to_hex (Digest.string s))

let is_scenario (name, _) = List.mem_assoc name Scenarios.all

let test_scenarios_recheck () =
  List.iter
    (fun (name, s) ->
      check_md5 name s;
      (match Certify.recheck_string s with
      | Ok () -> ()
      | Error msgs ->
          Alcotest.failf "%s: recheck rejected: %s" name
            (String.concat " | " msgs));
      match Certify.recheck_string (tamper s) with
      | Ok () -> Alcotest.failf "%s: tampered artifact accepted" name
      | Error _ -> ())
    (List.filter is_scenario (Lazy.force Testutil.pinned_artifacts))

let test_fleet_recheck () =
  List.iter
    (fun (name, s) ->
      check_md5 name s;
      match Certify.recheck_string s with
      | Ok () -> ()
      | Error msgs ->
          Alcotest.failf "%s: recheck rejected: %s" name
            (String.concat " | " msgs))
    (List.filter
       (fun a -> not (is_scenario a))
       (Lazy.force Testutil.pinned_artifacts))

(* The [fleet_certify] corpus: the 128-config CI fleet with guest tasks
   stripped.  One digest over every artifact pins each witness replay's
   confirm-or-demote verdict, not just the four configs above. *)
let test_fleet_corpus_digest () =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun (name, c) ->
      Buffer.add_string buf (build name (Testutil.without_tasks c)))
    (Fleet.gen_batch ~seed:42 ~count:128);
  Alcotest.(check int) "corpus bytes" 684_080 (Buffer.length buf);
  Alcotest.(check string) "corpus artifacts byte-identical"
    "0b1597f2137ff2a8c6197f5b2542479c"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* build_string serializes once and splices the digest in; the recheck
   cuts it out of the same bytes, whatever the scenario name holds, and
   ignores the final newline the CLI writes. *)
let test_build_string_splice () =
  List.iteri
    (fun i (name, config) ->
      let scenario = if i mod 2 = 0 then name else name ^ "\"\\\n\001" in
      let s = build scenario (Testutil.without_tasks config) in
      List.iter
        (fun s ->
          match Certify.recheck_string s with
          | Ok () -> ()
          | Error msgs ->
              Alcotest.failf "%s: recheck rejected: %s" name
                (String.concat " | " msgs))
        [ s; s ^ "\n" ])
    (Fleet.gen_batch ~seed:7 ~count:8)

let test_recheck_rejects_garbage () =
  List.iter
    (fun s ->
      match Certify.recheck_string s with
      | Ok () -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{}"; "{\"schema\":\"rthv-cert/9\"}"; "[1]"; "not json" ]

(* Two bucket sources whose C_BH is 2^61 cycles, subscribed to two of
   three partitions. *)
let saturated_buckets ~refill =
  let module Config = Rthv_core.Config in
  let source i =
    {
      (Config.source ~name:(Printf.sprintf "irq%d" i) ~line:i ~subscriber:i
         ~c_th_us:2 ~c_bh_us:1
         ~interarrivals:(Array.make 10 500_000_000)
         ())
      with
      Config.c_bh = 1 lsl 61;
      shaping = Config.Token_bucket { capacity = 2; refill };
    }
  in
  Config.make
    ~partitions:
      (List.init 3 (fun i ->
           Config.partition ~name:(Printf.sprintf "p%d" i) ~slot_us:50_000 ()))
    ~sources:[ source 0; source 1 ]
    ()

let check_rechecks name config =
  match Certify.recheck_string (build name config) with
  | Ok () -> ()
  | Error msgs ->
      Alcotest.failf "%s: recheck rejected: %s" name (String.concat " | " msgs)

(* Each eq.-(14) curve saturates at max_int in every window, and the third
   partition suffers both.  Its interference interval must saturate too:
   summed with [+] it wraps to [-4611686018427346150, -2], which the
   recheck rejects. *)
let test_saturated_interference_rechecks () =
  check_rechecks "saturated" (saturated_buckets ~refill:(1 lsl 40))

(* With a 400,000-cycle refill the closed-form utilisation loss is
   1.15292150461e+13: [%.12g] writes it in exponent form, which parses back
   as an integral float and re-serializes as digits.  The digest is checked
   on the bytes as written, so the artifact rechecks. *)
let test_exponent_float_rechecks () =
  let config = saturated_buckets ~refill:400_000 in
  let s = build "exponent" config in
  let needle = "\"util_loss_closed\":1.15292150461e+13," in
  let n = String.length needle in
  let rec has i =
    i + n <= String.length s && (String.sub s i n = needle || has (i + 1))
  in
  Alcotest.(check bool) "util loss in exponent form" true (has 0);
  check_rechecks "exponent" config

let test_certify_batch_job_invariant () =
  let batch = Fleet.gen_batch ~seed:42 ~count:4 in
  let run jobs =
    Fleet.certify_batch ~pool:(Rthv_par.Par.create ~jobs ()) batch
    |> List.map (fun (n, r) -> (n, Result.get_ok r))
  in
  let r1 = run 1 and r4 = run 4 in
  List.iter2
    (fun (n, a) (_, b) ->
      Alcotest.(check string) (n ^ " byte-identical across job counts") a b)
    r1 r4

let test_sarif_valid () =
  let groups =
    List.map
      (fun (name, builder) -> (Some name, Lint.analyze (builder ())))
      Scenarios.all
  in
  match J.parse (Sarif.to_string groups) with
  | Error e -> Alcotest.failf "SARIF does not parse: %s" e
  | Ok log -> (
      Alcotest.(check (option string)) "version" (Some "2.1.0")
        (Option.bind (J.member "version" log) J.to_str);
      match Option.bind (J.member "runs" log) J.to_list with
      | Some [ run ] ->
          let rules =
            Option.bind (J.member "tool" run) (J.member "driver")
            |> Fun.flip Option.bind (J.member "rules")
            |> Fun.flip Option.bind J.to_list
            |> Option.value ~default:[]
          in
          let rule_ids =
            List.filter_map
              (fun r -> Option.bind (J.member "id" r) J.to_str)
              rules
          in
          Alcotest.(check int) "rule table size"
            (List.length Sarif.rules) (List.length rule_ids);
          let results =
            Option.bind (J.member "results" run) J.to_list
            |> Option.value ~default:[]
          in
          if results = [] then Alcotest.fail "no SARIF results";
          List.iter
            (fun res ->
              let rule_id =
                Option.bind (J.member "ruleId" res) J.to_str
                |> Option.value ~default:"?"
              in
              if not (List.mem rule_id rule_ids) then
                Alcotest.failf "result rule %s not in the driver table" rule_id;
              match Option.bind (J.member "ruleIndex" res) J.to_int with
              | Some idx when idx >= 0 && idx < List.length rule_ids ->
                  Alcotest.(check string) "ruleIndex resolves" rule_id
                    (List.nth rule_ids idx)
              | _ -> Alcotest.failf "bad ruleIndex for %s" rule_id)
            results
      | _ -> Alcotest.fail "expected exactly one SARIF run")

let suite =
  [
    Alcotest.test_case "scenario artifacts recheck, tamper detected" `Slow
      test_scenarios_recheck;
    Alcotest.test_case "fleet artifacts recheck" `Slow test_fleet_recheck;
    Alcotest.test_case "fleet corpus artifacts pinned" `Slow
      test_fleet_corpus_digest;
    Alcotest.test_case "build_string splices the digest" `Quick
      test_build_string_splice;
    Alcotest.test_case "recheck rejects garbage" `Quick
      test_recheck_rejects_garbage;
    Alcotest.test_case "saturated interference rechecks" `Quick
      test_saturated_interference_rechecks;
    Alcotest.test_case "exponent-form float rechecks" `Quick
      test_exponent_float_rechecks;
    Alcotest.test_case "certify_batch job-invariant" `Slow
      test_certify_batch_job_invariant;
    Alcotest.test_case "SARIF export valid" `Quick test_sarif_valid;
  ]
