(* The per-IRQ fold: over every canonical scenario's recorded trace it
   reproduces the simulator's own records, and a run folded live equals
   the same run folded from its trace store. *)

module Hyp_sim = Rthv_core.Hyp_sim
module Hyp_trace = Rthv_core.Hyp_trace
module Irq_fold = Rthv_core.Irq_fold
module Irq_record = Rthv_core.Irq_record
module Store = Rthv_core.Trace_store
module Query = Rthv_core.Trace_query
module Scenarios = Rthv_check.Scenarios

let collect () =
  let acc = ref [] in
  ((fun sp -> acc := sp :: !acc), fun () -> List.rev !acc)

let by_irq spans =
  List.sort (fun a b -> compare a.Irq_fold.irq b.Irq_fold.irq) spans

let show irq source cls arrival top_start top_end completion =
  Printf.sprintf "irq#%d %s %s arrival=%d top=%d..%d completion=%d" irq source
    (Irq_fold.class_name cls) arrival top_start top_end completion

let of_record (r : Irq_record.t) =
  show r.Irq_record.irq r.Irq_record.source
    (Some r.Irq_record.classification)
    r.Irq_record.arrival r.Irq_record.top_start r.Irq_record.top_end
    r.Irq_record.completion

let of_span (sp : Irq_fold.span) =
  show sp.Irq_fold.irq sp.Irq_fold.source sp.Irq_fold.cls sp.Irq_fold.arrival
    sp.Irq_fold.top_start sp.Irq_fold.top_end sp.Irq_fold.completion

(* Class, arrival, top-handler start and end, and completion of every IRQ,
   against [Hyp_sim.records]. *)
let test_fold_reproduces_records build () =
  let config = build () in
  let trace = Hyp_trace.create ~capacity:(1 lsl 20) () in
  let sim = Hyp_sim.create ~trace config in
  Hyp_sim.run sim;
  Alcotest.(check int) "whole trace retained" 0 (Hyp_trace.dropped trace);
  let on_span, spans = collect () in
  let fold = Irq_fold.create ~config on_span in
  Hyp_trace.iter_rows trace (Irq_fold.row fold);
  let spans = by_irq (spans ()) in
  Alcotest.(check (list string))
    "one span per record, equal fields"
    (List.map of_record (Hyp_sim.records sim))
    (List.map of_span spans);
  Alcotest.(check bool) "timestamps monotone" true
    (List.for_all Testutil.monotone spans)

(* Live (spill hook) and stored (scan of the same events) folds agree span
   for span, and the query's latency samples are the live spans'. *)
let test_live_equals_store () =
  let config = Scenarios.automotive_ecu () in
  let trace = Hyp_trace.create ~capacity:(1 lsl 20) () in
  let on_live, live = collect () in
  Irq_fold.attach ~config trace on_live;
  Hyp_sim.run (Hyp_sim.create ~trace config);
  let live = live () in
  Alcotest.(check bool) "spans folded live" true (live <> []);
  Testutil.with_temp (fun path ->
      ignore (Store.write_entries path (Hyp_trace.to_list trace) : int);
      let on_stored, stored = collect () in
      let fold = Irq_fold.create ~config on_stored in
      ignore
        (Store.scan path ~f:(Irq_fold.row fold) : Rthv_obs.Tracestore.stats);
      Alcotest.(check bool) "store fold = live fold" true (stored () = live);
      let sample (sp : Irq_fold.span) =
        Printf.sprintf "irq#%d %s %s %.17g" sp.Irq_fold.irq sp.Irq_fold.source
          (Irq_fold.class_name sp.Irq_fold.cls)
          (Irq_fold.latency_us sp)
      in
      let on_sample, samples = collect () in
      ignore
        (Query.run ~config ~on_sample ~agg:Query.Latency
           ~group_by:Query.By_class path
          : Query.t);
      Alcotest.(check (list string))
        "query samples = live samples" (List.map sample live)
        (List.map sample (samples ())))

(* The in-flight table against a model: raises and completions of ids
   that collide in the table (multiples of 64, ids 2^40 apart) or not,
   folded as rows.  Every completion of a live id yields one span with
   its latest raise's arrival, whatever the collisions and removals, and
   the source name of its raise's line, which without a configuration is
   "line<N>" for any line: negative, past the names kept per line, or
   arbitrary. *)
let qcheck_in_flight_table =
  let gen =
    QCheck2.Gen.(
      list_size (0 -- 400)
        (triple bool
           (oneof
              [
                0 -- 7; map (fun k -> 64 * k) (0 -- 7);
                map (fun k -> k lsl 40) (0 -- 3);
              ])
           (oneof [ 0 -- 7; -3 -- -1; 4090 -- 4100; int ])))
  in
  Testutil.qtest ~count:200 "in-flight table = model" gen (fun ops ->
      let on_span, spans = collect () in
      let fold = Irq_fold.create on_span in
      let raised = Hyp_trace.kind_id Hyp_trace.Kind.Irq_raised in
      let done_ = Hyp_trace.kind_id Hyp_trace.Kind.Bottom_handler_done in
      let live = Hashtbl.create 16 and expected = ref [] in
      List.iteri
        (fun time (raise, irq, line) ->
          if raise then begin
            Hashtbl.replace live irq (time, line);
            Irq_fold.row fold ~time ~kind:raised ~a:irq ~b:line ~c:0 ~d:0
          end
          else begin
            (match Hashtbl.find_opt live irq with
            | Some (arrival, line) ->
                Hashtbl.remove live irq;
                expected :=
                  (irq, arrival, time, Printf.sprintf "line%d" line)
                  :: !expected
            | None -> ());
            Irq_fold.row fold ~time ~kind:done_ ~a:irq ~b:0 ~c:0 ~d:0
          end)
        ops;
      List.rev !expected
      = List.map
          (fun sp -> Irq_fold.(sp.irq, sp.arrival, sp.completion, sp.source))
          (spans ()))

let suite =
  List.map
    (fun (name, build) ->
      Alcotest.test_case
        (Printf.sprintf "%s: fold = records" name)
        `Slow
        (test_fold_reproduces_records build))
    Scenarios.all
  @ [
      Alcotest.test_case "live fold = store fold" `Quick test_live_equals_store;
      qcheck_in_flight_table;
    ]
