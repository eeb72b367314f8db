type key = { k_name : string; k_labels : Labels.t }

(* [help] maps metric name (not series key: HELP is per metric family in
   the exposition format) to its documentation string. *)
type t = {
  table : (key, Metric.value) Hashtbl.t;
  help : (string, string) Hashtbl.t;
}

let create () = { table = Hashtbl.create 64; help = Hashtbl.create 16 }

let set_help t name doc = if doc <> "" then Hashtbl.replace t.help name doc
let help t name = Hashtbl.find_opt t.help name

let installed_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let installed () = !(Domain.DLS.get installed_key)

let with_installed t f =
  let slot = Domain.DLS.get installed_key in
  let previous = !slot in
  slot := Some t;
  Fun.protect ~finally:(fun () -> slot := previous) f

let get_or_register t ~labels name ~make ~select =
  let key = { k_name = name; k_labels = labels } in
  match Hashtbl.find_opt t.table key with
  | Some value -> (
      match select value with
      | Some v -> v
      | None ->
          invalid_arg
            (Format.asprintf "Registry: %s%a is a %s, not the requested kind"
               name Labels.pp labels (Metric.kind_name value)))
  | None ->
      let value = make () in
      Hashtbl.add t.table key value;
      match select value with
      | Some v -> v
      | None -> assert false

let counter t ?(labels = Labels.empty) name =
  get_or_register t ~labels name
    ~make:(fun () -> Metric.Counter (ref 0))
    ~select:(function Metric.Counter r -> Some r | _ -> None)

let incr t ?labels name n =
  let r = counter t ?labels name in
  r := !r + n

let gauge t ?(labels = Labels.empty) name =
  get_or_register t ~labels name
    ~make:(fun () -> Metric.Gauge (ref 0.))
    ~select:(function Metric.Gauge r -> Some r | _ -> None)

let set_gauge t ?labels name v = gauge t ?labels name := v

let histogram t ?(labels = Labels.empty)
    ?(bounds = Metric.default_latency_bounds) name =
  get_or_register t ~labels name
    ~make:(fun () -> Metric.Histogram (Metric.histogram ~bounds))
    ~select:(function Metric.Histogram h -> Some h | _ -> None)

let observe t ?labels ?bounds name x =
  Metric.observe (histogram t ?labels ?bounds name) x

let summary t ?(labels = Labels.empty) ?quantiles name =
  get_or_register t ~labels name
    ~make:(fun () -> Metric.Summary (Quantile.create ?quantiles ()))
    ~select:(function Metric.Summary q -> Some q | _ -> None)

let observe_summary t ?labels name x =
  Quantile.observe (summary t ?labels name) x

let find t ?(labels = Labels.empty) name =
  Hashtbl.find_opt t.table { k_name = name; k_labels = labels }

type row = { name : string; labels : Labels.t; value : Metric.value }

let snapshot t =
  Hashtbl.fold
    (fun key value acc ->
      { name = key.k_name; labels = key.k_labels; value } :: acc)
    t.table []
  |> List.sort (fun a b ->
         match String.compare a.name b.name with
         | 0 -> Labels.compare a.labels b.labels
         | c -> c)

let cardinality t = Hashtbl.length t.table

(* Deterministic fold of [src] into [into]: counters and histogram bins
   add, gauges take the source's value (so folding per-task registries in
   input order leaves the last writer by task index), summaries merge via
   {!Quantile.merge}.  Iterating the sorted snapshot — not the hash table —
   keeps the result independent of insertion order on the source side. *)
let merge ~into src =
  Hashtbl.iter
    (fun name doc ->
      if not (Hashtbl.mem into.help name) then Hashtbl.add into.help name doc)
    src.help;
  List.iter
    (fun { name; labels; value } ->
      let key = { k_name = name; k_labels = labels } in
      match Hashtbl.find_opt into.table key with
      | None -> Hashtbl.add into.table key (Metric.copy_value value)
      | Some existing -> (
          match (existing, value) with
          | Metric.Counter d, Metric.Counter s -> d := !d + !s
          | Metric.Gauge d, Metric.Gauge s -> d := !s
          | Metric.Histogram d, Metric.Histogram s ->
              Hashtbl.replace into.table key
                (Metric.Histogram (Metric.merge d s))
          | Metric.Summary d, Metric.Summary s ->
              Hashtbl.replace into.table key
                (Metric.Summary (Quantile.merge d s))
          | d, s ->
              invalid_arg
                (Format.asprintf
                   "Registry.merge: %s%a is a %s here but a %s in the source"
                   name Labels.pp labels (Metric.kind_name d)
                   (Metric.kind_name s))))
    (snapshot src)

let pp ppf t =
  List.iter
    (fun { name; labels; value } ->
      match value with
      | Metric.Counter r ->
          Format.fprintf ppf "%s%a %d@." name Labels.pp labels !r
      | Metric.Gauge r ->
          Format.fprintf ppf "%s%a %g@." name Labels.pp labels !r
      | Metric.Histogram h ->
          Format.fprintf ppf "%s%a count=%d sum=%g@." name Labels.pp labels
            (Metric.total h) (Metric.sum h)
      | Metric.Summary q ->
          Format.fprintf ppf "%s%a %a@." name Labels.pp labels Quantile.pp q)
    (snapshot t)

let labels_json labels =
  Json.Obj
    (List.map (fun (k, v) -> (k, Json.String v)) (Labels.to_list labels))

let row_json { name; labels; value } =
  let base = [ ("name", Json.String name); ("labels", labels_json labels) ] in
  let rest =
    match value with
    | Metric.Counter r ->
        [ ("kind", Json.String "counter"); ("value", Json.Int !r) ]
    | Metric.Gauge r ->
        [ ("kind", Json.String "gauge"); ("value", Json.Float !r) ]
    | Metric.Histogram h ->
        [
          ("kind", Json.String "histogram");
          ("count", Json.Int (Metric.total h));
          ("sum", Json.Float (Metric.sum h));
          ( "buckets",
            Json.List
              (List.map
                 (fun (le, cum) ->
                   Json.Obj [ ("le", Json.Float le); ("count", Json.Int cum) ])
                 (Metric.cumulative h)) );
        ]
    | Metric.Summary q ->
        [
          ("kind", Json.String "summary");
          ("count", Json.Int (Quantile.count q));
          ("mean", Json.Float (Option.value ~default:0. (Quantile.mean q)));
          ("min", Json.Float (Option.value ~default:0. (Quantile.min_value q)));
          ("max", Json.Float (Option.value ~default:0. (Quantile.max_value q)));
          ( "quantiles",
            Json.Obj
              (List.map
                 (fun (p, v) -> (Printf.sprintf "%g" p, Json.Float v))
                 (Quantile.quantiles q)) );
        ]
  in
  Json.Obj (base @ rest)

let to_json t = Json.List (List.map row_json (snapshot t))

(* Prometheus exposition format.  Series of the same metric name share one
   HELP (when registered) and one TYPE comment; histograms expand into
   _bucket/_sum/_count, summaries into quantile-labelled samples plus
   _sum/_count. *)

(* HELP text escaping per the exposition format: backslash and newline. *)
let escape_help doc =
  let buf = Buffer.create (String.length doc) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    doc;
  Buffer.contents buf

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  let type_comment name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.add typed name ();
      (match Hashtbl.find_opt t.help name with
      | Some doc ->
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" name (escape_help doc))
      | None -> ());
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  let number f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.12g" f
  in
  List.iter
    (fun { name; labels; value } ->
      let l = Labels.to_prometheus labels in
      match value with
      | Metric.Counter r ->
          type_comment name "counter";
          Buffer.add_string buf (Printf.sprintf "%s%s %d\n" name l !r)
      | Metric.Gauge r ->
          type_comment name "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" name l (number !r))
      | Metric.Histogram h ->
          type_comment name "histogram";
          List.iter
            (fun (le, cum) ->
              let with_le =
                Labels.add "le" (number le) labels |> Labels.to_prometheus
              in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" name with_le cum))
            (Metric.cumulative h);
          let inf = Labels.add "le" "+Inf" labels |> Labels.to_prometheus in
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" name inf (Metric.total h));
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" name l (number (Metric.sum h)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" name l (Metric.total h))
      | Metric.Summary q ->
          type_comment name "summary";
          List.iter
            (fun (p, v) ->
              let with_q =
                Labels.add "quantile" (Printf.sprintf "%g" p) labels
                |> Labels.to_prometheus
              in
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" name with_q (number v)))
            (Quantile.quantiles q);
          (match Quantile.mean q with
          | Some mean ->
              Buffer.add_string buf
                (Printf.sprintf "%s_sum%s %s\n" name l
                   (number (mean *. float_of_int (Quantile.count q))))
          | None -> ());
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" name l (Quantile.count q)))
    (snapshot t);
  Buffer.contents buf
