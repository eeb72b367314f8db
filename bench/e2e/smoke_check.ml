(* Smoke test of the benchmark's interface: runs every workload named in
   BENCHMARK.json at a reduced size, untraced and traced, and checks that
   the result line parses, reports a correct run, and carries exactly the
   metrics BENCHMARK.json lists for that mode, each with its unit.

     smoke_check BENCHMARK.json ./rthv_bench.exe *)

module Json = Rthv_obs.Json

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("smoke_check: " ^ m);
      exit 1)
    fmt

let member k j =
  match Json.member k j with Some v -> v | None -> fail "missing field %S" k

let list k j =
  match Json.to_list (member k j) with Some l -> l | None -> fail "%S is not a list" k

let str k j =
  match Json.to_str (member k j) with Some s -> s | None -> fail "%S is not a string" k

let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> fail "%s %s did not exit 0" exe (String.concat " " args)

let last_line s =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> fail "no output"

let check_result ~what ~expected line =
  let r = match Json.parse line with Ok r -> r | Error e -> fail "%s: %s" what e in
  if member "correct" r <> Json.Bool true then fail "%s: not correct" what;
  (match Json.to_int (member "attempted" r) with
  | Some n when n >= 1 -> ()
  | _ -> fail "%s: attempted must be a whole number >= 1" what);
  if Json.to_int (member "failed" r) <> Some 0 then fail "%s: failed <> 0" what;
  let metrics =
    match member "metrics" r with Json.Obj kv -> kv | _ -> fail "%s: metrics" what
  in
  if List.length metrics <> List.length expected then
    fail "%s: %d metrics, BENCHMARK.json lists %d" what (List.length metrics)
      (List.length expected);
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name metrics with
      | None -> fail "%s: metric %s missing" what name
      | Some m ->
          if Json.to_float (member "value" m) = None then
            fail "%s: %s has no numeric value" what name;
          if str "unit" m <> unit then
            fail "%s: %s has unit %s, BENCHMARK.json says %s" what name (str "unit" m) unit)
    expected

let () =
  if Array.length Sys.argv <> 3 then fail "usage: smoke_check BENCHMARK.json RTHV_BENCH_EXE";
  let spec =
    match Json.parse (In_channel.with_open_bin Sys.argv.(1) In_channel.input_all) with
    | Ok j -> j
    | Error e -> fail "BENCHMARK.json: %s" e
  in
  let metrics key = List.map (fun m -> (str "name" m, str "unit" m)) (list key spec) in
  List.iter
    (fun w ->
      let name = str "name" w in
      List.iter
        (fun (trace, key) ->
          let what = Printf.sprintf "%s --trace %s" name trace in
          run Sys.argv.(2)
            [ "--smoke"; "--workload"; name; "--seed"; "7"; "--seconds"; "0"; "--trace"; trace ]
          |> last_line
          |> check_result ~what ~expected:(metrics key))
        [ ("0", "end_to_end"); ("1", "per_layer") ])
    (list "workloads" spec)
