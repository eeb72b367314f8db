module Config = Rthv_core.Config
module Cert = Rthv_analysis.Certificate
module A = Absint
module D = Diagnostic
module J = Rthv_obs.Json

let schema = "rthv-cert/1"
let digest_field = "digest"

(* --- building ------------------------------------------------------------ *)

let itv_to_json (i : A.Itv.t) =
  J.Obj
    [
      ("lo", J.Int i.A.Itv.lo);
      ("hi", match i.A.Itv.hi with Some h -> J.Int h | None -> J.Null);
    ]

let windowed_itv (w, i) =
  J.Obj [ ("window", J.Int w); ("interval", itv_to_json i) ]

let opt_float = function Some f -> J.Float f | None -> J.Null
let opt_int = function Some i -> J.Int i | None -> J.Null

let source_fact_to_json (sf : A.source_fact) =
  J.Obj
    [
      ("name", J.String sf.A.sf_name);
      ("line", J.Int sf.A.sf_line);
      ("subscriber", J.Int sf.A.sf_subscriber);
      ("c_bh_eff", J.Int sf.A.sf_c_bh_eff);
      ("footprint", J.Int sf.A.sf_footprint);
      ("degenerate", J.Bool sf.A.sf_degenerate);
      ("active", J.Bool sf.A.sf_active);
      ("per_instance", J.Bool sf.A.sf_per_instance);
      ("admissions", J.List (List.map windowed_itv sf.A.sf_admissions));
      ("interference", J.List (List.map windowed_itv sf.A.sf_interference));
      ( "ceiling",
        J.List
          (List.map
             (fun (w, c) -> J.Obj [ ("window", J.Int w); ("max", J.Int c) ])
             sf.A.sf_ceiling) );
      ("util_loss", opt_float sf.A.sf_util_loss);
      ("workload_max_per_cycle", opt_int sf.A.sf_workload_max_per_cycle);
    ]

let partition_fact_to_json (pf : A.partition_fact) =
  J.Obj
    [
      ("index", J.Int pf.A.pf_index);
      ("name", J.String pf.A.pf_name);
      ("declared", J.Int pf.A.pf_declared);
      ("slot", J.Int pf.A.pf_slot);
      ("share", J.Float pf.A.pf_share);
      ("task_util", J.Float pf.A.pf_task_util);
      ("demand", J.Float pf.A.pf_demand);
      ("interference", itv_to_json pf.A.pf_interference);
      ("verdict", J.String (A.verdict_name pf.A.pf_verdict));
    ]

let cert_verdict_to_json (v : Cert.verdict) =
  J.Obj
    [
      ("index", J.Int v.Cert.v_index);
      ("name", J.String v.Cert.v_name);
      ("interference_budget", J.Int v.Cert.interference_budget);
      ("utilisation_loss", J.Float v.Cert.utilisation_loss);
      ("schedulable", J.Bool v.Cert.schedulable);
    ]

let analysis_to_json (ai : A.t) =
  let util_lo, util_hi = ai.A.util in
  J.Obj
    [
      ("cycle", J.Int ai.A.cycle);
      ("c_ctx", J.Int ai.A.c_ctx);
      ("windows", J.List (List.map (fun w -> J.Int w) ai.A.windows));
      (* One fact and one gate per source, one fact per partition and one
         utilisation interval: the facts the pass computes. *)
      ( "iterations",
        J.Int ((2 * List.length ai.A.sources) + List.length ai.A.partitions + 1)
      );
      ("util_loss_closed", J.Float ai.A.util_loss_closed);
      ( "util",
        J.Obj [ ("lo", J.Float util_lo); ("hi", opt_float util_hi) ] );
      ("sources", J.List (List.map source_fact_to_json ai.A.sources));
      ("partitions", J.List (List.map partition_fact_to_json ai.A.partitions));
      ( "closed_certificate",
        J.Obj
          [
            ("holds", J.Bool ai.A.closed.Cert.holds);
            ( "grants",
              J.List
                (List.map
                   (fun (g : Cert.grant) ->
                     J.Obj
                       [
                         ("source", J.String g.Cert.source_name);
                         ("c_bh_eff", J.Int g.Cert.c_bh_eff);
                         ("subscriber", J.Int g.Cert.subscriber);
                       ])
                   ai.A.closed.Cert.grants) );
            ( "verdicts",
              J.List (List.map cert_verdict_to_json ai.A.closed.Cert.verdicts)
            );
          ] );
      ( "full_verdicts",
        match ai.A.full_verdicts with
        | None -> J.Null
        | Some vs -> J.List (List.map cert_verdict_to_json vs) );
    ]

let diag_to_json ((d : D.t), n) =
  J.Obj
    ([
       ("code", J.String d.D.code);
       ("severity", J.String (D.severity_name d.D.severity));
       ("loc", J.String d.D.loc);
       ("message", J.String d.D.message);
       ("count", J.Int n);
     ]
    @ match d.D.hint with Some h -> [ ("hint", J.String h) ] | None -> [])

let claim_to_json = function
  | Witness.Interference_claim { ic_carrier; ic_windows } ->
      J.Obj
        [
          ("kind", J.String "interference");
          ("carrier", J.Int ic_carrier);
          ( "windows",
            J.List
              (List.map
                 (fun (w, b) ->
                   J.Obj [ ("window", J.Int w); ("bound", J.Int b) ])
                 ic_windows) );
        ]
  | Witness.Service_claim { sv_partition; sv_min_total } ->
      J.Obj
        [
          ("kind", J.String "service");
          ("partition", J.Int sv_partition);
          ("min_total", J.Int sv_min_total);
        ]

let witness_to_json (w : Witness.t) =
  let m = w.Witness.w_measured in
  J.Obj
    [
      ("code", J.String w.Witness.w_code);
      ("loc", J.String w.Witness.w_loc);
      ("predicted", J.String w.Witness.w_predicted);
      ("claim", claim_to_json w.Witness.w_claim);
      ( "arrivals",
        J.List
          (List.map
             (fun (line, arr) ->
               J.Obj
                 [
                   ("line", J.Int line);
                   ( "distances",
                     J.List
                       (Array.to_list (Array.map (fun d -> J.Int d) arr)) );
                 ])
             w.Witness.w_arrivals) );
      ( "baseline_errors",
        J.Int (List.length (D.errors w.Witness.w_baseline)) );
      ( "oracle",
        J.List
          (List.map
             (fun (d : D.t) -> J.String d.D.code)
             (D.errors w.Witness.w_oracle)) );
      ("horizon", J.Int m.Trace_oracle.m_horizon);
      ( "service",
        J.List
          (Array.to_list
             (Array.map (fun s -> J.Int s) m.Trace_oracle.m_service)) );
      ("charges", J.Int (List.length m.Trace_oracle.m_charges));
      ("confirmed", J.Bool w.Witness.w_confirmed);
      ("digest", J.String w.Witness.w_digest);
    ]

let fields ?(scenario = "config") config =
  match Config_codec.to_json config with
  | Error e -> Error e
  | Ok config_json ->
      (* One interval analysis feeds the lint rules, every witness and the
         serialized analysis section. *)
      let (graded, confirmed), analysis =
        match Config.validate config with
        | Error _ -> ((Lint.analyze config, []), J.Null)
        | Ok () ->
            let ai = A.analyze config in
            (Witness.certified_with ai config, analysis_to_json ai)
      in
      let diags = D.dedupe graded in
      let witnesses = List.map (fun (_, w) -> witness_to_json w) confirmed in
      Ok
        [
          ("schema", J.String schema);
          ("scenario", J.String scenario);
          ("config", config_json);
          ("diagnostics", J.List (List.map diag_to_json diags));
          ("analysis", analysis);
          ("witnesses", J.List witnesses);
        ]

(* One serialization: the tamper digest covers the artifact's bytes with
   its own value blanked, so it is the last field and the blanked text
   ends in ["digest":""}]; its 32 hex digits need no escaping and go
   between those quotes. *)
let build_string ?scenario config =
  Result.map
    (fun fields ->
      let text =
        J.to_string (J.Obj (fields @ [ (digest_field, J.String "") ]))
      in
      let digest = Digest.to_hex (Digest.string text) in
      let n = String.length text and d = String.length digest in
      let b = Bytes.create (n + d) in
      Bytes.blit_string text 0 b 0 (n - 2);
      Bytes.blit_string digest 0 b (n - 2) d;
      Bytes.blit_string text (n - 2) b (n + d - 2) 2;
      Bytes.unsafe_to_string b)
    (fields ?scenario config)

(* --- rechecking ---------------------------------------------------------- *)

type ctx = { mutable violations : string list }

let fail ctx fmt = Printf.ksprintf (fun s -> ctx.violations <- s :: ctx.violations) fmt

let get name json = J.member name json

let str name json = Option.bind (get name json) J.to_str
let num name json = Option.bind (get name json) J.to_int
let arr name json = Option.bind (get name json) J.to_list

let itv_of_json json =
  match (num "lo" json, get "hi" json) with
  | Some lo, Some J.Null -> Some { A.Itv.lo; hi = None }
  | Some lo, Some v -> (
      match J.to_int v with
      | Some hi -> Some { A.Itv.lo; hi = Some hi }
      | None -> None)
  | _ -> None

let check_interval ctx ~what json =
  match itv_of_json json with
  | None -> fail ctx "%s: malformed interval" what
  | Some i ->
      if not (A.Itv.consistent i) then
        fail ctx "%s: inconsistent interval [%d, %s]" what i.A.Itv.lo
          (match i.A.Itv.hi with Some h -> string_of_int h | None -> "inf")

let check_windowed ctx ~what json =
  match J.to_list json with
  | None -> fail ctx "%s: expected a list" what
  | Some entries ->
      List.iteri
        (fun k entry ->
          match get "interval" entry with
          | None -> fail ctx "%s[%d]: missing interval" what k
          | Some i ->
              check_interval ctx ~what:(Printf.sprintf "%s[%d]" what k) i)
        entries

let check_analysis ctx json =
  (match arr "windows" json with
  | None -> fail ctx "analysis: missing windows"
  | Some ws ->
      let ws = List.filter_map J.to_int ws in
      if List.sort compare ws <> ws || List.exists (fun w -> w <= 0) ws then
        fail ctx "analysis: windows not ascending positive");
  (match get "util" json with
  | None -> fail ctx "analysis: missing util"
  | Some u -> (
      match (Option.bind (get "lo" u) J.to_float, get "hi" u) with
      | Some lo, Some J.Null ->
          if lo < 0. then fail ctx "analysis.util: negative lower end"
      | Some lo, Some hi_v -> (
          match J.to_float hi_v with
          | Some hi ->
              if lo < 0. || lo > hi then
                fail ctx "analysis.util: inconsistent interval [%g, %g]" lo hi
          | None -> fail ctx "analysis.util: malformed upper end")
      | _ -> fail ctx "analysis.util: malformed"));
  (match arr "sources" json with
  | None -> fail ctx "analysis: missing sources"
  | Some sources ->
      List.iteri
        (fun k s ->
          let what field = Printf.sprintf "analysis.sources[%d].%s" k field in
          (match get "admissions" s with
          | Some l -> check_windowed ctx ~what:(what "admissions") l
          | None -> fail ctx "%s: missing" (what "admissions"));
          match get "interference" s with
          | Some l -> check_windowed ctx ~what:(what "interference") l
          | None -> fail ctx "%s: missing" (what "interference"))
        sources);
  match arr "partitions" json with
  | None -> fail ctx "analysis: missing partitions"
  | Some partitions ->
      List.iteri
        (fun k p ->
          let what field = Printf.sprintf "analysis.partitions[%d].%s" k field in
          (match get "interference" p with
          | Some i -> check_interval ctx ~what:(what "interference") i
          | None -> fail ctx "%s: missing" (what "interference"));
          match str "verdict" p with
          | Some ("proved" | "refuted" | "unknown") -> ()
          | Some v -> fail ctx "%s: unknown verdict %S" (what "verdict") v
          | None -> fail ctx "%s: missing" (what "verdict"))
        partitions

let arrivals_of_json json =
  Option.bind (J.to_list json) (fun entries ->
      List.fold_left
        (fun acc e ->
          Option.bind acc (fun acc ->
              match (num "line" e, arr "distances" e) with
              | Some line, Some ds ->
                  let ds = List.filter_map J.to_int ds in
                  Some ((line, Array.of_list ds) :: acc)
              | _ -> None))
        (Some []) entries
      |> Option.map List.rev)

let check_witness ctx k json =
  let what field = Printf.sprintf "witnesses[%d].%s" k field in
  (match (str "predicted" json, arr "oracle" json) with
  | Some predicted, Some oracle ->
      let fired = List.filter_map J.to_str oracle in
      if not (List.mem predicted fired) then
        fail ctx "%s: predicted rule %s absent from the oracle codes"
          (what "oracle") predicted
  | _ -> fail ctx "%s: missing predicted/oracle" (what "oracle"));
  (match num "baseline_errors" json with
  | Some 0 -> ()
  | Some n -> fail ctx "%s: true-spec audit has %d error(s)" (what "baseline_errors") n
  | None -> fail ctx "%s: missing" (what "baseline_errors"));
  (match get "confirmed" json with
  | Some (J.Bool true) -> ()
  | Some _ -> fail ctx "%s: witness not confirmed" (what "confirmed")
  | None -> fail ctx "%s: missing" (what "confirmed"));
  match (get "arrivals" json, str "digest" json) with
  | Some a, Some digest -> (
      match arrivals_of_json a with
      | None -> fail ctx "%s: malformed" (what "arrivals")
      | Some arrivals ->
          if Witness.digest_of_arrivals arrivals <> digest then
            fail ctx "%s: digest does not match the arrival streams"
              (what "digest"))
  | _ -> fail ctx "%s: missing arrivals/digest" (what "arrivals")

(* The inverse of [build_string]'s splice, on the bytes as given (JSON
   whitespace after the closing brace is not part of the artifact): they
   end in ["digest":"<32 hex digits>"}], and the MD5 of the text with the
   digits cut out is the digits. *)
let check_digest ctx s =
  let n = ref (String.length s) in
  while !n > 0 && String.contains " \t\n\r" s.[!n - 1] do
    decr n
  done;
  let n = !n and tail = "\"" ^ digest_field ^ "\":\"" in
  let start = n - 34 and t = String.length tail in
  if start < t || String.sub s (start - t) t <> tail || s.[n - 1] <> '}' then
    fail ctx "missing digest field"
  else begin
    let blanked = Bytes.create (start + 2) in
    Bytes.blit_string s 0 blanked 0 start;
    Bytes.blit_string s (n - 2) blanked start 2;
    if Digest.to_hex (Digest.bytes blanked) <> String.sub s start 32 then
      fail ctx "digest mismatch: artifact was modified"
  end

let recheck text json =
  let ctx = { violations = [] } in
  (match str "schema" json with
  | Some s when s = schema -> ()
  | Some s -> fail ctx "unsupported schema %S (expected %S)" s schema
  | None -> fail ctx "missing schema field");
  check_digest ctx text;
  (* The embedded configuration must decode and re-encode identically. *)
  (match get "config" json with
  | None -> fail ctx "missing config"
  | Some c -> (
      match Config_codec.of_json c with
      | Error e -> fail ctx "config does not decode: %s" e
      | Ok config -> (
          match Config_codec.to_json config with
          | Ok c' when c' = c -> ()
          | Ok _ -> fail ctx "config does not round-trip"
          | Error e -> fail ctx "config does not re-encode: %s" e)));
  (* Diagnostics: valid severities, deterministic order, positive counts. *)
  let diags =
    match arr "diagnostics" json with
    | None ->
        fail ctx "missing diagnostics";
        []
    | Some ds ->
        List.iteri
          (fun k d ->
            (match str "severity" d with
            | Some ("error" | "warning" | "info") -> ()
            | _ -> fail ctx "diagnostics[%d]: invalid severity" k);
            (match str "code" d with
            | Some c
              when String.length c = 7 && String.sub c 0 4 = "RTHV" ->
                ()
            | _ -> fail ctx "diagnostics[%d]: invalid rule code" k);
            match num "count" d with
            | Some n when n >= 1 -> ()
            | _ -> fail ctx "diagnostics[%d]: invalid count" k)
          ds;
        ds
  in
  (* Interval and verdict consistency, without re-running the analysis. *)
  (match get "analysis" json with
  | None -> fail ctx "missing analysis"
  | Some J.Null ->
      (* Only an invalid configuration certifies without analysis. *)
      if
        not
          (List.exists
             (fun d -> str "code" d = Some "RTHV001")
             diags)
      then fail ctx "analysis is null but RTHV001 was not reported"
  | Some a -> check_analysis ctx a);
  (* Every channelled Error must carry a confirmed witness, and vice versa. *)
  let witnesses =
    match arr "witnesses" json with
    | None ->
        fail ctx "missing witnesses";
        []
    | Some ws -> ws
  in
  List.iteri (fun k w -> check_witness ctx k w) witnesses;
  List.iteri
    (fun k d ->
      match (str "severity" d, str "code" d, str "loc" d) with
      | Some "error", Some code, Some loc
        when List.mem_assoc code Witness.channels ->
          if
            not
              (List.exists
                 (fun w -> str "code" w = Some code && str "loc" w = Some loc)
                 witnesses)
          then
            fail ctx
              "diagnostics[%d]: error %s at %s has a witness channel but no \
               witness"
              k code loc
      | _ -> ())
    diags;
  match ctx.violations with
  | [] -> Ok ()
  | vs -> Error (List.rev vs)

let recheck_string s =
  match J.parse s with
  | Error e -> Error [ Printf.sprintf "artifact does not parse: %s" e ]
  | Ok json -> recheck s json
