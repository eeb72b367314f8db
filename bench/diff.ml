(* Compare two rthv-bench/1 JSON files (see bench/main.ml --json) and fail
   on performance regressions.

   Usage:  dune exec bench/diff.exe -- BASELINE.json CURRENT.json
             [--ratio R] [--words-slack W]

   Wall-clock estimates are compared with a *relative* tolerance: a row
   regresses when current > baseline * R (default 5.0 — generous on
   purpose, the baseline and CI machines differ; the gate exists to catch
   order-of-magnitude mistakes like an accidentally quadratic hot path,
   not scheduler noise).  Improvements are never failures.

   Allocation estimates are machine-independent, so they get an *absolute*
   slack in minor words (default 8.0): the allocation-free hot paths must
   stay allocation-free wherever the bench runs.  Rows that allocate by
   design (a full simulator run is hundreds of thousands of words) carry
   run-to-run noise in the OLS estimate that dwarfs any absolute slack, so
   a *relative* component (--words-ratio, default 1.02) is OR-ed in: a row
   regresses only when current exceeds both [base + slack] and
   [base * words-ratio].  An allocation-free baseline row (0 words) is
   unaffected — 0 * ratio is 0, the absolute slack alone governs it.

   Rows present only in the baseline fail the diff (a silently dropped
   bench is a lost regression gate); rows only in the current file are
   reported as informational.

   The optional "profile" section (per-phase totals of the 15000-IRQ
   simulation under the hierarchical profiler, see bench/main.ml) is gated
   with the same rules, keyed by phase path: per-phase wall-clock with the
   relative --ratio and per-phase minor words with the slack/ratio pair
   (the simulation is deterministic, so phase words are reproducible to
   the word).  A baseline without a profile section skips the check.

   The "stream" section's rows (15k IRQs retained, 1M IRQs streaming) are
   gated like micro rows.  One further hard gate: a sweep row whose pool
   ran >1 effective domains FAILS below 1.0x (parallel slower than
   sequential is a real regression once Par's single-core fallback is
   ruled out). *)

module Json = Rthv_obs.Json

let fail fmt = Format.kasprintf (fun s -> prerr_endline s; exit 2) fmt

let member name = function
  | Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

let number = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let string_field name doc =
  match member name doc with Some (Json.String s) -> Some s | _ -> None

type row = { ns : float; words : float }

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  match Json.parse text with
  | Error e -> fail "%s: %s" path e
  | Ok doc ->
      (match string_field "schema" doc with
      | Some "rthv-bench/1" -> ()
      | Some other -> fail "%s: unsupported schema %s" path other
      | None -> fail "%s: missing schema field" path);
      let rows =
        match member "micro" doc with
        | Some (Json.List rows) -> rows
        | _ -> fail "%s: missing micro array" path
      in
      let micro =
        List.filter_map
          (fun r ->
            match
              (string_field "name" r, number (member "ns_per_run" r),
               number (member "minor_words_per_run" r))
            with
            | Some name, Some ns, Some words -> Some (name, { ns; words })
            | _ -> None)
          rows
      in
      (* Older baselines predate the profile section: absent means empty,
         and an empty baseline gates nothing. *)
      let profile_rows =
        match member "profile" doc with
        | Some (Json.List rows) -> rows
        | Some _ -> fail "%s: profile is not an array" path
        | None -> []
      in
      let profile =
        List.filter_map
          (fun r ->
            match
              (string_field "path" r, number (member "total_ns" r),
               number (member "words" r))
            with
            | Some p, Some ns, Some words ->
                Some ("profile:" ^ p, { ns; words })
            | _ -> None)
          profile_rows
      in
      (* Sweep speedups, keyed by sweep name; absent in older files.  Each
         carries the pool's post-clamp domain count (absent in older files:
         assume real parallelism so the gate stays armed). *)
      let sweep =
        match member "sweep" doc with
        | Some (Json.Obj entries) ->
            List.filter_map
              (fun (name, v) ->
                match number (member "speedup" v) with
                | None -> None
                | Some s ->
                    let effective =
                      match number (member "effective_jobs" v) with
                      | Some e -> int_of_float e
                      | None -> 2
                    in
                    Some (name, s, effective))
              entries
        | _ -> []
      in
      (* Streaming rows (15k retained, 1M streaming), gated like micro
         rows. *)
      let stream_rows =
        match Option.bind (member "stream" doc) (member "rows") with
        | Some (Json.List rows) ->
            List.filter_map
              (fun r ->
                match
                  ( string_field "name" r,
                    number (member "ns_per_run" r),
                    number (member "minor_words_per_run" r) )
                with
                | Some name, Some ns, Some words ->
                    Some ("stream:" ^ name, { ns; words })
                | _ -> None)
              rows
        | _ -> []
      in
      (micro, profile, sweep, stream_rows)

let () =
  let ratio = ref 5.0 in
  let words_slack = ref 8.0 in
  let words_ratio = ref 1.02 in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--ratio" :: v :: rest ->
        ratio := float_of_string v;
        parse rest
    | "--words-slack" :: v :: rest ->
        words_slack := float_of_string v;
        parse rest
    | "--words-ratio" :: v :: rest ->
        words_ratio := float_of_string v;
        parse rest
    | arg :: rest ->
        files := arg :: !files;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let baseline_path, current_path =
    match List.rev !files with
    | [ b; c ] -> (b, c)
    | _ ->
        fail
          "usage: diff BASELINE.json CURRENT.json [--ratio R] [--words-slack \
           W] [--words-ratio WR]"
  in
  let baseline_micro, baseline_profile, _, baseline_stream =
    load baseline_path
  in
  let current_micro, current_profile, current_sweep, current_stream =
    load current_path
  in
  let failures = ref 0 in
  let compare_rows baseline current =
    List.iter
      (fun (name, b) ->
        match List.assoc_opt name current with
        | None ->
            incr failures;
            Printf.printf "%-48s MISSING from %s\n" name current_path
        | Some c ->
            let r = if b.ns > 0.0 then c.ns /. b.ns else Float.infinity in
            let time_bad = r > !ratio in
            let words_bad =
              c.words > b.words +. !words_slack
              && c.words > b.words *. !words_ratio
            in
            if time_bad || words_bad then incr failures;
            Printf.printf "%-48s %12.1f %12.1f %7.2fx%s%s\n" name b.ns c.ns r
              (if time_bad then "  TIME REGRESSION" else "")
              (if words_bad then
                 Printf.sprintf "  ALLOC REGRESSION (%.1f -> %.1f words)"
                   b.words c.words
               else ""))
      baseline;
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name baseline) then
          Printf.printf "%-48s (new, not in baseline)\n" name)
      current
  in
  Printf.printf "%-48s %12s %12s %8s\n" "benchmark" "base ns" "curr ns" "ratio";
  compare_rows baseline_micro current_micro;
  compare_rows baseline_profile current_profile;
  compare_rows baseline_stream current_stream;
  (* A parallel sweep must beat sequential whenever the pool actually ran
     more than one domain — Par skips the fan-out machinery below that, so
     any sub-1.0x speedup with real parallelism is a regression, not
     machine noise.  On a single schedulable core (effective_jobs <= 1)
     both timings run the identical sequential path and the "speedup" is
     pure noise around 1.0x, so the gate disarms. *)
  List.iter
    (fun (name, speedup, effective_jobs) ->
      if speedup < 1.0 then
        if effective_jobs > 1 then begin
          incr failures;
          Printf.printf
            "%-48s SWEEP REGRESSION: parallel slower than sequential \
             (%.2fx at %d domains)\n"
            ("sweep:" ^ name) speedup effective_jobs
        end
        else
          Printf.printf
            "%-48s note: single core, sequential path both sides (%.2fx)\n"
            ("sweep:" ^ name) speedup)
    current_sweep;
  if !failures > 0 then begin
    Printf.printf "\n%d regression(s) against %s (ratio > %.1fx or > %+.1f \
                   minor words and > %.2fx)\n"
      !failures baseline_path !ratio !words_slack !words_ratio;
    exit 1
  end;
  Printf.printf "\nno regressions against %s\n" baseline_path
