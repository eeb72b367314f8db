(* rthv_certify: check a sufficient-temporal-independence certificate from
   the command line.

   Example — two partitions with tasks, one interposition grant:
     rthv_certify --cycle-us 14000 --ctx-us 50 \
       --partition 'ctl:6000:attitude,12000,800;actuator,24000,1200' \
       --partition 'io:6000:' \
       --partition 'hk:2000:' \
       --grant 'nic:1544:154'

   Partition syntax:  NAME:SLOT_US:TASK(;TASK)*  with TASK = name,period_us,wcet_us
   Grant syntax:      NAME:DMIN_US:CBH_EFF_US *)

module Cycles = Rthv_engine.Cycles
module C = Rthv_analysis.Certificate
module GS = Rthv_analysis.Guest_sched
module DF = Rthv_analysis.Distance_fn

(* A duration in a spec, range-checked as a --cycle-us value is. *)
let cycles_of_us text =
  match Cmdliner.Arg.conv_parser Cli_arg.us text with
  | Ok us -> Some (Cycles.of_us us)
  | Error _ -> None

let parse_task spec =
  match String.split_on_char ',' spec with
  | [ name; period; wcet ] -> (
      match (cycles_of_us period, cycles_of_us wcet) with
      | Some period, Some wcet -> Ok { GS.name; period; wcet; priority = 0 }
      | _ -> Error (Printf.sprintf "bad task %S" spec))
  | _ -> Error (Printf.sprintf "bad task %S (want name,period_us,wcet_us)" spec)

let parse_partition index spec =
  match String.split_on_char ':' spec with
  | [ name; slot; tasks ] -> (
      match cycles_of_us slot with
      | Some slot ->
          let task_specs =
            List.filter (fun s -> s <> "") (String.split_on_char ';' tasks)
          in
          let rec parse_all acc = function
            | [] -> Ok (List.rev acc)
            | t :: rest -> (
                match parse_task t with
                | Ok task -> parse_all (task :: acc) rest
                | Error _ as e -> e)
          in
          (match parse_all [] task_specs with
          | Ok tasks ->
              Ok { C.p_index = index; p_name = name; slot; tasks }
          | Error msg -> Error msg)
      | _ -> Error (Printf.sprintf "bad slot in %S" spec))
  | _ ->
      Error (Printf.sprintf "bad partition %S (want name:slot_us:tasks)" spec)

let parse_grant spec =
  match String.split_on_char ':' spec with
  | [ name; d_min; c_bh_eff ] -> (
      match (cycles_of_us d_min, cycles_of_us c_bh_eff) with
      | Some d_min, Some c_bh_eff ->
          Ok
            {
              C.source_name = name;
              monitor = DF.d_min d_min;
              c_bh_eff;
              subscriber = 0;
            }
      | _ -> Error (Printf.sprintf "bad grant %S" spec))
  | _ ->
      Error (Printf.sprintf "bad grant %S (want name:dmin_us:cbh_eff_us)" spec)

(* Machine-readable artifact (--json): the closed-form certificate in the
   same shape as the [closed_certificate] block of a full "rthv-cert/1"
   proof artifact (rthv_lint --certify), so integrator tooling parses one
   schema for both the CLI and the certified pipeline. *)
let cert_to_json (cert : C.t) =
  let module J = Rthv_obs.Json in
  let task_result_to_json (task, result) =
    J.Obj
      [
        ("task", J.String task.GS.name);
        ("period", J.Int task.GS.period);
        ("wcet", J.Int task.GS.wcet);
        ( "result",
          match result with
          | Ok r ->
              let module BW = Rthv_analysis.Busy_window in
              J.Obj
                [
                  ("response_time", J.Int r.BW.response_time);
                  ("q_max", J.Int r.BW.q_max);
                  ("met", J.Bool (r.BW.response_time <= task.GS.period));
                ]
          | Error e -> J.Obj [ ("diverged", J.String e) ] );
      ]
  in
  let verdict_to_json (v : C.verdict) =
    J.Obj
      [
        ("index", J.Int v.C.v_index);
        ("name", J.String v.C.v_name);
        ("interference_budget", J.Int v.C.interference_budget);
        ("utilisation_loss", J.Float v.C.utilisation_loss);
        ("tasks", J.List (List.map task_result_to_json v.C.task_results));
        ("schedulable", J.Bool v.C.schedulable);
      ]
  in
  let grant_to_json (g : C.grant) =
    J.Obj
      [
        ("source", J.String g.C.source_name);
        ("c_bh_eff", J.Int g.C.c_bh_eff);
        ("subscriber", J.Int g.C.subscriber);
        ("d_min_entries", J.List
           (List.map (fun d -> J.Int d)
              (Array.to_list (DF.entries g.C.monitor))));
      ]
  in
  J.Obj
    [
      ("schema", J.String "rthv-closed-cert/1");
      ("cycle", J.Int cert.C.cycle);
      ("c_ctx", J.Int cert.C.c_ctx);
      ("grants", J.List (List.map grant_to_json cert.C.grants));
      ("verdicts", J.List (List.map verdict_to_json cert.C.verdicts));
      ("holds", J.Bool cert.C.holds);
    ]

let main cycle_us ctx_us partition_specs grant_specs json =
  let rec parse_list f i acc = function
    | [] -> Ok (List.rev acc)
    | spec :: rest -> (
        match f i spec with
        | Ok v -> parse_list f (i + 1) (v :: acc) rest
        | Error msg -> Error msg)
  in
  match
    ( parse_list parse_partition 0 [] partition_specs,
      parse_list (fun _ s -> parse_grant s) 0 [] grant_specs )
  with
  | Error msg, _ | _, Error msg ->
      Format.eprintf "%s@." msg;
      1
  | Ok [], _ ->
      Format.eprintf "need at least one --partition@.";
      1
  | Ok partitions, Ok grants -> (
      let rec sum acc = function
        | [] -> Some acc
        | p :: rest ->
            if acc > max_int - p.C.slot then None else sum (acc + p.C.slot) rest
      in
      let cycle = Cycles.of_us cycle_us in
      match sum 0 partitions with
      | None ->
          Format.eprintf "slot lengths sum past max_int cycles@.";
          1
      | Some declared when declared <> cycle ->
          Format.eprintf
            "slot lengths sum to %a but --cycle-us says %a@." Cycles.pp
            declared Cycles.pp cycle;
          1
      | Some _ ->
          let cert =
            C.check ~cycle ~c_ctx:(Cycles.of_us ctx_us) ~partitions ~grants
          in
          if json then
            print_string (Rthv_obs.Json.to_string (cert_to_json cert) ^ "\n")
          else C.pp Format.std_formatter cert;
          if cert.C.holds then 0 else 2)

open Cmdliner

let cycle_us =
  Arg.(
    value & opt Cli_arg.us 14_000
    & info [ "cycle-us" ] ~docv:"US" ~doc:"TDMA cycle length.")

let ctx_us =
  Arg.(
    value & opt Cli_arg.us_or_zero 50
    & info [ "ctx-us" ] ~docv:"US" ~doc:"Partition context-switch cost.")

let partitions =
  Arg.(
    value & opt_all string []
    & info [ "partition"; "p" ] ~docv:"NAME:SLOT_US:TASKS"
        ~doc:
          "Partition with its slot and ';'-separated tasks \
           (name,period_us,wcet_us).  Repeatable, in TDMA order.")

let grants =
  Arg.(
    value & opt_all string []
    & info [ "grant"; "g" ] ~docv:"NAME:DMIN_US:CBH_EFF_US"
        ~doc:"Interposition grant to audit.  Repeatable.")

let json =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the certificate as a machine-readable JSON artifact \
           (schema $(b,rthv-closed-cert/1)) instead of the text report.")

let cmd =
  let doc =
    "audit sufficient temporal independence for a set of interposition \
     grants (Beckert et al., DAC 2014, equations (2) and (14))"
  in
  Cmd.v
    (Cmd.info "rthv_certify" ~doc ~exits:
       (Cmd.Exit.info 2 ~doc:"the certificate does not hold" :: Cmd.Exit.defaults))
    Term.(const main $ cycle_us $ ctx_us $ partitions $ grants $ json)

let () = exit (Cmd.eval' cmd)
