module Cycles = Rthv_engine.Cycles
module Quantile = Rthv_obs.Quantile
module Json = Rthv_obs.Json
module Tracestore = Rthv_obs.Tracestore

type agg = Count | Rate | Latency
type group_by = By_none | By_partition | By_kind | By_class | By_source

type group = {
  g_key : string;
  g_count : int;
  g_digest : Quantile.t option;
}

type t = {
  q_agg : agg;
  q_group_by : group_by;
  q_stats : Tracestore.stats;
  q_matched : int;
  q_span_us : float;
  q_groups : group list;
}

let agg_name = function Count -> "count" | Rate -> "rate" | Latency -> "latency"

let group_by_name = function
  | By_none -> "none"
  | By_partition -> "partition"
  | By_kind -> "kind"
  | By_class -> "class"
  | By_source -> "source"

(* --- group accumulation --------------------------------------------------- *)

(* Group keys sort numerically when they parse as ints (partitions), and
   lexically otherwise, so "10" lands after "2" in partition tables. *)
let compare_keys a b =
  match (int_of_string_opt a, int_of_string_opt b) with
  | Some x, Some y -> compare x y
  | _ -> compare a b

type bucket = { mutable count : int; digest : Quantile.t option }

(* While scanning, a group is found by an int (a kind id, class index,
   partition or line) in an array slot.  Its string key is given when
   the int is first seen, and ints whose keys are equal share a bucket.
   [named] is read once, at the end.  Ints outside [0, slot_limit), which
   only a corrupt store holds, find their bucket by key on every row. *)
type groups = {
  digests : bool;
  mutable slots : bucket array;  (* [absent] in unseen slots *)
  named : (string, bucket) Hashtbl.t;
}

let absent = { count = 0; digest = None }
let slot_limit = 4096
let groups ~digests = { digests; slots = [||]; named = Hashtbl.create 16 }

(* The bucket of [k], or [absent] before [add]. *)
let find g k =
  if k >= 0 && k < Array.length g.slots then g.slots.(k) else absent

let add g k key =
  let b =
    match Hashtbl.find_opt g.named key with
    | Some b -> b
    | None ->
        let b =
          {
            count = 0;
            digest = (if g.digests then Some (Quantile.create ()) else None);
          }
        in
        Hashtbl.add g.named key b;
        b
  in
  if k >= 0 && k < slot_limit then begin
    let len = Array.length g.slots in
    if k >= len then begin
      let slots = Array.make (min slot_limit (max (k + 1) (2 * len))) absent in
      Array.blit g.slots 0 slots 0 len;
      g.slots <- slots
    end;
    g.slots.(k) <- b
  end;
  b

let render g =
  Hashtbl.fold (fun key b acc -> (key, b) :: acc) g.named []
  |> List.sort (fun (a, _) (b, _) -> compare_keys a b)
  |> List.map (fun (g_key, b) ->
         { g_key; g_count = b.count; g_digest = b.digest })

(* --- count / rate -------------------------------------------------------- *)

(* An event touching two partitions counts in both groups; line-keyed
   events group under their line's subscriber when a map is given and
   under "unattributed" otherwise.  Group [p + 1] is partition [p], and
   group 0 is "unattributed". *)
let count_partition g p =
  let k = if p < 0 then 0 else p + 1 in
  let b = find g k in
  let b =
    if b != absent then b
    else add g k (if p < 0 then "unattributed" else string_of_int p)
  in
  b.count <- b.count + 1

let run_count ?filter ?line_partition ~group_by path =
  (match group_by with
  | By_none | By_partition | By_kind -> ()
  | By_class | By_source ->
      invalid_arg "Trace_query: group-by class/source needs --agg latency");
  let g = groups ~digests:false in
  let matched = ref 0 in
  let t_lo = ref max_int and t_hi = ref min_int in
  let stats =
    Trace_store.scan ?filter ?line_partition path
      ~f:(fun ~time ~kind ~a ~b ~c:_ ~d:_ ->
        incr matched;
        if time < !t_lo then t_lo := time;
        if time > !t_hi then t_hi := time;
        match group_by with
        | By_none -> ()
        | By_kind ->
            let bk = find g kind in
            let bk =
              if bk != absent then bk
              else add g kind (Hyp_trace.kind_name kind)
            in
            bk.count <- bk.count + 1
        | By_partition ->
            let first =
              Trace_store.row_partition ~line_partition ~kind ~a ~b 0
            in
            if first < 0 then count_partition g (-1)
            else begin
              count_partition g first;
              let second =
                Trace_store.row_partition ~line_partition ~kind ~a ~b 1
              in
              if second >= 0 && second <> first then count_partition g second
            end
        | By_class | By_source -> assert false)
  in
  let span_us =
    if !matched >= 2 then Cycles.to_us (!t_hi - !t_lo) else 0.
  in
  let groups =
    match group_by with
    | By_none ->
        [ { g_key = "all"; g_count = !matched; g_digest = None } ]
    | _ -> render g
  in
  (stats, !matched, span_us, groups)

(* --- latency ------------------------------------------------------------- *)

(* One sample per span the fold completes; the fold holds the classifier
   and the in-flight state. *)
let run_latency ?(filter = Trace_store.no_filter) ?config ?on_sample
    ~group_by path =
  (match group_by with
  | By_none | By_partition | By_class | By_source -> ()
  | By_kind ->
      invalid_arg "Trace_query: group-by kind needs --agg count or rate");
  let scan_filter =
    {
      Trace_store.from_time = filter.Trace_store.from_time;
      to_time = filter.Trace_store.to_time;
      kinds = Some Irq_fold.latency_kinds;
      (* The classifier needs the global slot_switch stream, so the
         partition filter applies to completed samples, not scanned
         events. *)
      partition = None;
    }
  in
  let g = groups ~digests:true in
  let samples = ref 0 in
  let t_lo = ref max_int and t_hi = ref min_int in
  let sample (sp : Irq_fold.span) =
    let keep =
      match filter.Trace_store.partition with
      | None -> true
      | Some q -> q = sp.Irq_fold.partition
    in
    if keep then begin
      incr samples;
      if sp.Irq_fold.arrival < !t_lo then t_lo := sp.Irq_fold.arrival;
      if sp.Irq_fold.completion > !t_hi then t_hi := sp.Irq_fold.completion;
      (match on_sample with Some f -> f sp | None -> ());
      let k =
        match group_by with
        | By_none -> 0
        | By_partition -> sp.Irq_fold.partition
        | By_class -> (
            match sp.Irq_fold.cls with
            | Some Irq_record.Direct -> 0
            | Some Irq_record.Interposed -> 1
            | Some Irq_record.Delayed -> 2
            | None -> 3)
        | By_source -> sp.Irq_fold.line
        | By_kind -> assert false
      in
      let bk = find g k in
      let bk =
        if bk != absent then bk
        else
          add g k
            (match group_by with
            | By_none -> "all"
            | By_partition -> string_of_int sp.Irq_fold.partition
            | By_class -> Irq_fold.class_name sp.Irq_fold.cls
            | By_source -> sp.Irq_fold.source
            | By_kind -> assert false)
      in
      bk.count <- bk.count + 1;
      match bk.digest with
      | Some dg -> Quantile.observe dg (Irq_fold.latency_us sp)
      | None -> ()
    end
  in
  let fold = Irq_fold.create ?config sample in
  let stats =
    Trace_store.scan ~filter:scan_filter path ~f:(Irq_fold.row fold)
  in
  let span_us = if !samples >= 2 then Cycles.to_us (!t_hi - !t_lo) else 0. in
  (stats, !samples, span_us, render g)

let run ?filter ?config ?on_sample ~agg ~group_by path =
  let stats, matched, span_us, groups =
    match agg with
    | Count | Rate ->
        let line_partition =
          Option.map
            (fun (config : Config.t) line ->
              List.find_map
                (fun (s : Config.source) ->
                  if s.Config.line = line then Some s.Config.subscriber
                  else None)
                config.Config.sources)
            config
        in
        run_count ?filter ?line_partition ~group_by path
    | Latency -> run_latency ?filter ?config ?on_sample ~group_by path
  in
  {
    q_agg = agg;
    q_group_by = group_by;
    q_stats = stats;
    q_matched = matched;
    q_span_us = span_us;
    q_groups = groups;
  }

(* --- rendering ----------------------------------------------------------- *)

let rate_per_s t count =
  if t.q_span_us > 0. then float_of_int count /. (t.q_span_us /. 1e6)
  else 0.

let digest_fields dg =
  let q p = Option.value ~default:Float.nan (Quantile.quantile dg p) in
  [
    ("mean_us", Json.Float (Option.value ~default:Float.nan (Quantile.mean dg)));
    ("p50_us", Json.Float (q 0.5));
    ("p95_us", Json.Float (q 0.95));
    ("p99_us", Json.Float (q 0.99));
    ("p999_us", Json.Float (q 0.999));
    ( "max_us",
      Json.Float (Option.value ~default:Float.nan (Quantile.max_value dg)) );
  ]

let to_json ?store t =
  let group g =
    Json.Obj
      (("key", Json.String g.g_key)
      :: ("count", Json.Int g.g_count)
      :: (match t.q_agg with
         | Rate -> [ ("rate_per_s", Json.Float (rate_per_s t g.g_count)) ]
         | Count -> []
         | Latency -> (
             match g.g_digest with Some dg -> digest_fields dg | None -> [])))
  in
  Json.Obj
    ([
       ("schema", Json.String "rthv-query/1");
     ]
    @ (match store with
      | Some s -> [ ("store", Json.String s) ]
      | None -> [])
    @ [
        ("aggregation", Json.String (agg_name t.q_agg));
        ("group_by", Json.String (group_by_name t.q_group_by));
        ("blocks", Json.Int t.q_stats.Tracestore.s_blocks);
        ("blocks_scanned", Json.Int t.q_stats.Tracestore.s_blocks_scanned);
        ("rows_scanned", Json.Int t.q_stats.Tracestore.s_rows);
        ("matched", Json.Int t.q_matched);
        ("span_us", Json.Float t.q_span_us);
        ("groups", Json.List (List.map group t.q_groups));
      ])

let pp ppf t =
  Format.fprintf ppf "-- %s by %s: %d matched over %.1f us (%d/%d blocks) --@."
    (agg_name t.q_agg)
    (group_by_name t.q_group_by)
    t.q_matched t.q_span_us t.q_stats.Tracestore.s_blocks_scanned
    t.q_stats.Tracestore.s_blocks;
  match t.q_agg with
  | Count ->
      List.iter
        (fun g -> Format.fprintf ppf "%-24s %10d@." g.g_key g.g_count)
        t.q_groups
  | Rate ->
      Format.fprintf ppf "%-24s %10s %12s@." "group" "count" "events/s";
      List.iter
        (fun g ->
          Format.fprintf ppf "%-24s %10d %12.1f@." g.g_key g.g_count
            (rate_per_s t g.g_count))
        t.q_groups
  | Latency ->
      Format.fprintf ppf "%-24s %8s %10s %10s %10s %10s %10s@." "group" "count"
        "mean_us" "p50_us" "p99_us" "p99.9_us" "max_us";
      List.iter
        (fun g ->
          match g.g_digest with
          | None -> Format.fprintf ppf "%-24s %8d@." g.g_key g.g_count
          | Some dg ->
              let q p =
                Option.value ~default:Float.nan (Quantile.quantile dg p)
              in
              Format.fprintf ppf
                "%-24s %8d %10.1f %10.1f %10.1f %10.1f %10.1f@." g.g_key
                g.g_count
                (Option.value ~default:Float.nan (Quantile.mean dg))
                (q 0.5) (q 0.99) (q 0.999)
                (Option.value ~default:Float.nan (Quantile.max_value dg)))
        t.q_groups
