(* Span recorder for the traced run.

   Spans are taken on the benchmark's side of each library call, never
   inside the library, so the library is measured exactly as users call
   it.  Every domain writes into its own preallocated buffer: recording a
   span costs two clock reads and a few array stores, and nothing is
   allocated.  A span's self time is its duration minus the time covered
   by its child spans.

   Aggregates (count, total, self) are kept for every span.  The raw
   spans, written out as Chrome Trace JSON, are bounded: a hot span (one
   per trace event) is stored only while fewer than [hot_limit] slots are
   taken, so the coarse structure of every operation stays in the file. *)

type name = { id : int; label : string; layer : string; hot : bool }

let max_names = 64
let registered : name list ref = ref []

(* Called from module initialisation only, before any domain is spawned. *)
let register ?(hot = false) ~layer label =
  let id = List.length !registered in
  if id >= max_names then invalid_arg "Spans.register: too many names";
  let n = { id; label; layer; hot } in
  registered := n :: !registered;
  n

let names () = List.rev !registered
let capacity = 1 lsl 17
let hot_limit = 1 lsl 15
let max_depth = 64
let now () = Int64.to_int (Monotonic_clock.now ())

type buf = {
  tid : int;
  s_name : int array;
  s_start : int array;
  s_stop : int array;
  s_parent : int array;
  s_op : int array;
  mutable len : int;
  mutable dropped : int;
  st_name : int array;
  st_start : int array;
  st_child : int array;
  st_slot : int array;
  mutable depth : int;
  mutable op : int;
  count : int array;
  total : int array;
  self : int array;
}

let fresh tid =
  let ints n = Array.make n 0 in
  {
    tid;
    s_name = ints capacity;
    s_start = ints capacity;
    s_stop = ints capacity;
    s_parent = ints capacity;
    s_op = ints capacity;
    len = 0;
    dropped = 0;
    st_name = ints max_depth;
    st_start = ints max_depth;
    st_child = ints max_depth;
    st_slot = ints max_depth;
    depth = 0;
    op = 0;
    count = ints max_names;
    total = ints max_names;
    self = ints max_names;
  }

(* [Par] spawns fresh domains on every call, so a domain hands its buffer
   back when it exits and the next worker reuses it: the buffer count is
   the peak number of live domains, not the number of calls. *)
let lock = Mutex.create ()
let all : buf list ref = ref []
let free : buf list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let b =
        Mutex.protect lock (fun () ->
            match !free with
            | b :: rest ->
                free := rest;
                b
            | [] ->
                let b = fresh (List.length !all) in
                all := b :: !all;
                b)
      in
      Domain.at_exit (fun () -> Mutex.protect lock (fun () -> free := b :: !free));
      b)

let enabled = ref false

(* Set before any worker domain is spawned. *)
let enable () = enabled := true
let active () = !enabled
let set_op op = if !enabled then (Domain.DLS.get key).op <- op

let enter n =
  if !enabled then begin
    let b = Domain.DLS.get key in
    let d = b.depth in
    let slot =
      if b.len < if n.hot then hot_limit else capacity then begin
        let s = b.len in
        b.len <- s + 1;
        b.s_name.(s) <- n.id;
        b.s_parent.(s) <- (if d > 0 then b.st_slot.(d - 1) else -1);
        b.s_op.(s) <- b.op;
        s
      end
      else begin
        b.dropped <- b.dropped + 1;
        -1
      end
    in
    b.st_name.(d) <- n.id;
    b.st_child.(d) <- 0;
    b.st_slot.(d) <- slot;
    b.depth <- d + 1;
    let t = now () in
    b.st_start.(d) <- t;
    if slot >= 0 then b.s_start.(slot) <- t
  end

let leave () =
  if !enabled then begin
    let t = now () in
    let b = Domain.DLS.get key in
    let d = b.depth - 1 in
    b.depth <- d;
    let id = b.st_name.(d) in
    let dur = t - b.st_start.(d) in
    b.count.(id) <- b.count.(id) + 1;
    b.total.(id) <- b.total.(id) + dur;
    b.self.(id) <- b.self.(id) + dur - b.st_child.(d);
    if d > 0 then b.st_child.(d - 1) <- b.st_child.(d - 1) + dur;
    let slot = b.st_slot.(d) in
    if slot >= 0 then b.s_stop.(slot) <- t
  end

let span n f =
  enter n;
  match f () with
  | v ->
      leave ();
      v
  | exception e ->
      leave ();
      raise e

type agg = { calls : int; total_ns : int; self_ns : int }

let aggregate n =
  List.fold_left
    (fun a b ->
      {
        calls = a.calls + b.count.(n.id);
        total_ns = a.total_ns + b.total.(n.id);
        self_ns = a.self_ns + b.self.(n.id);
      })
    { calls = 0; total_ns = 0; self_ns = 0 }
    !all

let mean_ns n =
  let a = aggregate n in
  if a.calls = 0 then 0. else float_of_int a.total_ns /. float_of_int a.calls

let mean_self_ns n =
  let a = aggregate n in
  if a.calls = 0 then 0. else float_of_int a.self_ns /. float_of_int a.calls

let dropped () = List.fold_left (fun acc b -> acc + b.dropped) 0 !all

(* Chrome Trace Event JSON ("X" complete events, microsecond timestamps
   relative to the first stored span); [args.parent] is the slot of the
   enclosing span on the same tid, -1 at the root. *)
let write_chrome path ~meta =
  let by_id = Array.of_list (names ()) in
  let bufs = List.rev !all in
  let t0 =
    List.fold_left
      (fun acc b ->
        if b.len = 0 then acc else Stdlib.min acc b.s_start.(0))
      max_int bufs
  in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun b ->
      for s = 0 to b.len - 1 do
        let n = by_id.(b.s_name.(s)) in
        if not !first then output_string oc ",\n";
        first := false;
        Printf.fprintf oc
          "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"op\":%d,\"slot\":%d,\"parent\":%d}}"
          (Rthv_obs.Json.escape n.label)
          n.layer
          (float_of_int (b.s_start.(s) - t0) /. 1e3)
          (float_of_int (b.s_stop.(s) - b.s_start.(s)) /. 1e3)
          b.tid b.s_op.(s) s b.s_parent.(s)
      done)
    bufs;
  Printf.fprintf oc "],\"displayTimeUnit\":\"ns\",\"otherData\":%s}\n"
    (Rthv_obs.Json.to_string
       (Rthv_obs.Json.Obj
          (("dropped_spans", Rthv_obs.Json.Int (dropped ())) :: meta)));
  close_out oc

(* One row per span name that was entered at least once. *)
let table () =
  List.filter_map
    (fun n ->
      let a = aggregate n in
      if a.calls = 0 then None else Some (n, a))
    (names ())
