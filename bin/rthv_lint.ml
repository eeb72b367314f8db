(* rthv_lint: static configuration analyzer, trace-invariant oracle and
   counterexample-guided certifier for the real-time hypervisor
   reproduction.

   Pass 1 checks a configuration against the paper's analysis before a
   single cycle is simulated (rule codes RTHV0xx); pass 2 (--trace-audit)
   simulates the scenario and folds its hypervisor trace through the
   invariant oracle as it is recorded (codes RTHV1xx); pass 3 (--certify)
   synthesizes an adversarial witness trace for every Error-severity
   refutation, demotes any Error the replay cannot confirm, and emits a
   proof-carrying certificate artifact that --recheck re-validates without
   re-running the analysis.

   Examples:
     rthv_lint                            # lint the three example scenarios
     rthv_lint -s demo_bad                # watch the static rules fire
     rthv_lint --trace-audit              # lint + simulate + audit the traces
     rthv_lint --certify --out-dir certs  # witness-backed certificates
     rthv_lint --recheck certs/demo_bad.cert.json
     rthv_lint --gen-batch 100 --out-dir fleet    # deterministic CI corpus
     rthv_lint --batch fleet --jobs 4     # fleet lint on the domain pool
     rthv_lint --batch fleet --certify --out-dir fleet-certs --jobs 4
     rthv_lint --format=sarif             # SARIF 2.1.0, for code scanning
     rthv_lint --list-rules               # every rule and invariant code *)

module Config = Rthv_core.Config
module Hyp_sim = Rthv_core.Hyp_sim
module Hyp_trace = Rthv_core.Hyp_trace
module Par = Rthv_par.Par
module Check = Rthv_check

type finding = { scenario : string; pass : string; diag : Check.Diagnostic.t }

let lint_scenario ~certify name config =
  let diags =
    if certify then fst (Check.Witness.certified config)
    else Check.Lint.analyze config
  in
  List.map (fun diag -> { scenario = name; pass = "lint"; diag }) diags

let trace_audit_scenario name config =
  match Config.validate config with
  | Error _ -> [] (* already an RTHV001 in the lint pass *)
  | Ok () ->
      (* The oracle folds the events as they are recorded: the ring only
         carries them, so a run of any length is audited in full. *)
      let trace = Hyp_trace.create ~capacity:256 () in
      let fold =
        Check.Trace_oracle.attach (Check.Trace_oracle.of_config config) trace
      in
      Hyp_sim.run (Hyp_sim.create ~trace config);
      List.map
        (fun diag -> { scenario = name; pass = "trace"; diag })
        (fst (Check.Trace_oracle.finish fold))

let print_text ~selected ~passes findings =
  List.iter
    (fun scenario ->
      List.iter
        (fun pass ->
          let diags =
            List.filter_map
              (fun f ->
                if f.scenario = scenario && f.pass = pass then Some f.diag
                else None)
              findings
          in
          Format.printf "== %s (%s) ==@." scenario
            (if pass = "lint" then "static analysis" else "trace audit");
          Format.printf "%a@." Check.Diagnostic.pp_report diags)
        passes)
    selected

let print_json findings =
  let objects =
    List.map
      (fun f ->
        Check.Diagnostic.to_json
          ~extra:[ ("scenario", f.scenario); ("pass", f.pass) ]
          f.diag)
      findings
  in
  print_string ("[" ^ String.concat "," objects ^ "]\n")

let print_sarif groups = print_string (Check.Sarif.to_string groups)

let list_rules () =
  Format.printf "Static rules (pass 1):@.";
  List.iter
    (fun (code, doc) -> Format.printf "  %s  %s@." code doc)
    Check.Lint.rules;
  Format.printf "Trace invariants (pass 2, --trace-audit):@.";
  List.iter
    (fun (code, doc) -> Format.printf "  %s  %s@." code doc)
    Check.Trace_oracle.invariants;
  0

(* --- certificate artifacts ----------------------------------------------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let write_certificates ~out_dir certs =
  ensure_dir out_dir;
  List.fold_left
    (fun failed (name, cert) ->
      match cert with
      | Error e ->
          Format.eprintf "%s: certificate build failed: %s@." name e;
          failed + 1
      | Ok s ->
          write_file (Filename.concat out_dir (name ^ ".cert.json")) s;
          failed)
    0 certs

let recheck_files files =
  let failed =
    List.fold_left
      (fun failed path ->
        match
          let ic = open_in_bin path in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Check.Certify.recheck_string s
        with
        | Ok () ->
            Format.printf "%s: certificate ok@." path;
            failed
        | Error msgs ->
            Format.printf "%s: REJECTED@." path;
            List.iter (fun m -> Format.printf "  %s@." m) msgs;
            failed + 1
        | exception Sys_error e ->
            Format.printf "%s: REJECTED@.  %s@." path e;
            failed + 1)
      0 files
  in
  if failed = 0 then 0 else 1

(* --- fleet mode ----------------------------------------------------------- *)

let gen_batch_mode ~count ~seed ~out_dir =
  match out_dir with
  | None ->
      Format.eprintf "--gen-batch requires --out-dir@.";
      1
  | Some dir -> (
      match Check.Fleet.write_batch ~dir (Check.Fleet.gen_batch ~seed ~count) with
      | Ok n ->
          Format.printf "wrote %d config(s) to %s@." n dir;
          0
      | Error e ->
          Format.eprintf "%s@." e;
          1)

let batch_mode ~dir ~pool ~certify ~out_dir ~format =
  match Check.Fleet.load_dir dir with
  | Error e ->
      Format.eprintf "%s@." e;
      1
  | Ok configs ->
      if certify then (
        match out_dir with
        | None ->
            Format.eprintf "--batch --certify requires --out-dir@.";
            1
        | Some out_dir ->
            let certs = Check.Fleet.certify_batch ~pool configs in
            let failed = write_certificates ~out_dir certs in
            Format.printf "certified %d config(s) into %s (%d failed)@."
              (List.length certs) out_dir failed;
            if failed = 0 then 0 else 1)
      else
        let results = Check.Fleet.lint_batch ~pool configs in
        (match format with
        | `Text -> print_string (Check.Fleet.report results)
        | `Json ->
            print_string
              ("["
              ^ String.concat ","
                  (List.concat_map
                     (fun (name, diags) ->
                       List.map
                         (Check.Diagnostic.to_json
                            ~extra:[ ("scenario", name); ("pass", "lint") ])
                         diags)
                     results)
              ^ "]\n")
        | `Sarif ->
            print_sarif
              (List.map (fun (name, diags) -> (Some name, diags)) results));
        if
          List.exists
            (fun (_, diags) -> List.exists Check.Diagnostic.is_error diags)
            results
        then 2
        else 0

(* --- entry point ----------------------------------------------------------- *)

let main scenarios all format trace_audit rules_only certify out_dir recheck
    batch gen_batch seed jobs =
  let pool =
    match jobs with Some j -> Par.create ~jobs:j () | None -> Par.create ()
  in
  if rules_only then list_rules ()
  else if recheck <> [] then recheck_files recheck
  else
    match (gen_batch, batch) with
    | Some count, _ -> gen_batch_mode ~count ~seed ~out_dir
    | None, Some dir -> batch_mode ~dir ~pool ~certify ~out_dir ~format
    | None, None -> (
        let selected =
          if all then List.map fst Check.Scenarios.all
          else if scenarios = [] then List.map fst Check.Scenarios.good
          else scenarios
        in
        let unknown =
          List.filter (fun s -> Check.Scenarios.find s = None) selected
        in
        if unknown <> [] then begin
          Format.eprintf "unknown scenario(s): %s (available: %s)@."
            (String.concat ", " unknown)
            (String.concat ", " (List.map fst Check.Scenarios.all));
          1
        end
        else
          let pairs =
            List.map
              (fun name ->
                (name, (Option.get (Check.Scenarios.find name)) ()))
              selected
          in
          let findings =
            List.concat
              (Par.map ~pool
                 (fun (name, config) ->
                   lint_scenario ~certify name config
                   @
                   if trace_audit then trace_audit_scenario name config
                   else [])
                 pairs)
          in
          let artifact_failures =
            match (certify, out_dir) with
            | true, Some out_dir ->
                write_certificates ~out_dir
                  (Par.map ~pool
                     (fun (name, config) ->
                       (name, Check.Certify.build_string ~scenario:name config))
                     pairs)
            | _ -> 0
          in
          (match format with
          | `Text ->
              let passes =
                "lint" :: (if trace_audit then [ "trace" ] else [])
              in
              print_text ~selected ~passes findings
          | `Json -> print_json findings
          | `Sarif ->
              print_sarif
                (List.map
                   (fun name ->
                     ( Some name,
                       List.filter_map
                         (fun f ->
                           if f.scenario = name then Some f.diag else None)
                         findings ))
                   selected));
          if artifact_failures > 0 then 1
          else if
            List.exists (fun f -> Check.Diagnostic.is_error f.diag) findings
          then 2
          else 0)

open Cmdliner

let scenarios =
  Arg.(
    value & opt_all string []
    & info [ "s"; "scenario" ] ~docv:"NAME"
        ~doc:
          "Scenario to analyse (repeatable).  Defaults to the three example \
           scenarios; see --all for the rule-demonstration input.")

let all =
  Arg.(
    value & flag
    & info [ "all" ]
        ~doc:"Analyse every scenario, including the deliberately broken \
              $(b,demo_bad).")

let format =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Output format: $(b,text), $(b,json) or $(b,sarif) (2.1.0).")

let trace_audit =
  Arg.(
    value & flag
    & info [ "trace-audit" ]
        ~doc:
          "Additionally simulate each scenario and replay the recorded \
           hypervisor trace through the invariant oracle (codes RTHV1xx).")

let rules_only =
  Arg.(
    value & flag
    & info [ "list-rules" ] ~doc:"List every rule and invariant code, then exit.")

let certify =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Counterexample-guided certification: synthesize an adversarial \
           witness for every Error-severity refutation, demote Errors whose \
           replay does not confirm, and (with --out-dir) write \
           proof-carrying $(b,.cert.json) artifacts that --recheck \
           re-validates offline.")

let out_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "out-dir" ] ~docv:"DIR"
        ~doc:"Directory for --certify artifacts or --gen-batch configs.")

let recheck =
  Arg.(
    value & opt_all string []
    & info [ "recheck" ] ~docv:"FILE"
        ~doc:
          "Re-validate a certificate artifact (repeatable): schema, digest, \
           config round-trip, interval consistency and witness digests are \
           checked without re-running analysis or simulation.")

let batch =
  Arg.(
    value
    & opt (some string) None
    & info [ "batch" ] ~docv:"DIR"
        ~doc:
          "Lint (or, with --certify, certify) every config JSON in DIR on \
           the domain pool.  Output is byte-identical at any --jobs count.")

let gen_batch =
  Arg.(
    value
    & opt (some Cli_arg.count) None
    & info [ "gen-batch" ] ~docv:"N"
        ~doc:
          "Write N deterministically generated configs (from --seed) to \
           --out-dir, then exit.")

let seed =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED" ~doc:"Fleet-generation seed for --gen-batch.")

let jobs =
  Arg.(
    value
    & opt (some Cli_arg.count) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for batch/certify runs (default: $(b,RTHV_JOBS) \
           or the host core count).")

let cmd =
  let doc =
    "statically analyse hypervisor configurations, audit simulation traces \
     and certify refutations with replayable counterexamples"
  in
  Cmd.v
    (Cmd.info "rthv_lint" ~doc
       ~exits:
         (Cmd.Exit.info 2 ~doc:"error-severity findings were reported"
         :: Cmd.Exit.defaults))
    Term.(
      const main $ scenarios $ all $ format $ trace_audit $ rules_only
      $ certify $ out_dir $ recheck $ batch $ gen_batch $ seed $ jobs)

let () = exit (Cmd.eval' cmd)
