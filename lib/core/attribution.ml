(* Latency attribution: aggregate per-IRQ spans into per-(source, class)
   waterfalls.  Each component gets its own streaming-quantile digest, so
   the aggregation is O(1) memory per group regardless of the number of
   IRQs; the worst span (maximum end-to-end latency) is kept whole for the
   report's drill-down. *)

module Cycles = Rthv_engine.Cycles
module Quantile = Rthv_obs.Quantile

type group = {
  g_source : string;
  g_class : Irq_record.classification option;
  mutable g_count : int;
  g_latency : Quantile.t;
  g_components : (string, Quantile.t) Hashtbl.t;
  mutable g_worst : Irq_fold.span option;
}

type t = {
  groups : (string * Irq_record.classification option, group) Hashtbl.t;
}

let create () = { groups = Hashtbl.create 8 }

(* The sum of the components, which are differences of per-timestamp
   microsecond values. *)
let latency (sp : Irq_fold.span) =
  Cycles.to_us sp.Irq_fold.completion -. Cycles.to_us sp.Irq_fold.arrival

let group t (sp : Irq_fold.span) =
  let key = (sp.Irq_fold.source, sp.Irq_fold.cls) in
  match Hashtbl.find_opt t.groups key with
  | Some g -> g
  | None ->
      let g =
        {
          g_source = sp.Irq_fold.source;
          g_class = sp.Irq_fold.cls;
          g_count = 0;
          g_latency = Quantile.create ();
          g_components = Hashtbl.create 8;
          g_worst = None;
        }
      in
      Hashtbl.add t.groups key g;
      g

let record t sp =
  let g = group t sp in
  g.g_count <- g.g_count + 1;
  Quantile.observe g.g_latency (latency sp);
  List.iter
    (fun (name, v) ->
      let q =
        match Hashtbl.find_opt g.g_components name with
        | Some q -> q
        | None ->
            let q = Quantile.create () in
            Hashtbl.add g.g_components name q;
            q
      in
      Quantile.observe q v)
    (Irq_fold.components sp);
  match g.g_worst with
  | Some w when latency w >= latency sp -> ()
  | _ -> g.g_worst <- Some sp

(* --- read-out ----------------------------------------------------------- *)

type stats = { st_p50 : float; st_p99 : float; st_max : float; st_mean : float }

let stats_of q =
  let v f = Option.value ~default:0. f in
  {
    st_p50 = v (Quantile.quantile q 0.5);
    st_p99 = v (Quantile.quantile q 0.99);
    st_max = v (Quantile.max_value q);
    st_mean = v (Quantile.mean q);
  }

type row = {
  r_source : string;
  r_class : Irq_record.classification option;
  r_count : int;
  r_latency : stats;
  r_components : (string * stats) list;  (* causal order *)
  r_worst : Irq_fold.span option;
}

let row_of_group g =
  let components =
    List.filter_map
      (fun name ->
        match Hashtbl.find_opt g.g_components name with
        | Some q -> Some (name, stats_of q)
        | None -> None)
      Irq_fold.all_component_names
  in
  {
    r_source = g.g_source;
    r_class = g.g_class;
    r_count = g.g_count;
    r_latency = stats_of g.g_latency;
    r_components = components;
    r_worst = g.g_worst;
  }

let rows t =
  Hashtbl.fold (fun _ g acc -> g :: acc) t.groups []
  |> List.sort (fun a b ->
         match String.compare a.g_source b.g_source with
         | 0 ->
             String.compare
               (Irq_fold.class_name a.g_class)
               (Irq_fold.class_name b.g_class)
         | c -> c)
  |> List.map row_of_group

let total_spans t =
  Hashtbl.fold (fun _ g acc -> acc + g.g_count) t.groups 0
