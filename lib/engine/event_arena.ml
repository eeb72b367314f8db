type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable payloads : int array;
  mutable size : int;
  mutable next_seq : int;
}

let no_event = max_int

let create ?(capacity = 64) () =
  let capacity = if capacity < 1 then 1 else capacity in
  {
    times = Array.make capacity 0;
    seqs = Array.make capacity 0;
    payloads = Array.make capacity 0;
    size = 0;
    next_seq = 0;
  }

let is_empty t = t.size = 0
let length t = t.size

(* Strict (time, seq) order; seq is unique, so this is a total order. *)
let lt t i j =
  t.times.(i) < t.times.(j)
  || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let tm = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- tm;
  let sq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- sq;
  let pl = t.payloads.(i) in
  t.payloads.(i) <- t.payloads.(j);
  t.payloads.(j) <- pl

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = if left < t.size && lt t left i then left else i in
  let smallest =
    if right < t.size && lt t right smallest then right else smallest
  in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

let grow t =
  let capacity = Array.length t.times in
  if t.size = capacity then begin
    let extend a = Array.append a (Array.make capacity 0) in
    t.times <- extend t.times;
    t.seqs <- extend t.seqs;
    t.payloads <- extend t.payloads
  end

let push t ~time payload =
  grow t;
  let i = t.size in
  t.times.(i) <- time;
  t.seqs.(i) <- t.next_seq;
  t.payloads.(i) <- payload;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t i

let head_time t = if t.size = 0 then no_event else t.times.(0)
let head_payload t = t.payloads.(0)

let drop t =
  if t.size > 0 then begin
    t.size <- t.size - 1;
    if t.size > 0 then begin
      let n = t.size in
      t.times.(0) <- t.times.(n);
      t.seqs.(0) <- t.seqs.(n);
      t.payloads.(0) <- t.payloads.(n);
      sift_down t 0
    end
  end
