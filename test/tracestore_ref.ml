(* The reference trace-store codec: the writer that staged each block in
   six int arrays and encoded it at flush, and the decoder whose varint
   reader is one loop, that Rthv_obs.Tracestore's column-as-rows-arrive
   writer and unrolled scan replaced, kept verbatim (its filter and stats
   types are the library's) so the tests can check that the library
   writes the same bytes and makes the same callbacks, and that every
   malformed input fails with the same message.  Only test_tracestore
   uses it. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let format_name = "rthv-tracestore/1"
let magic = format_name ^ "\n"
let default_block_events = 8192
let max_kinds = 62

(* --- varint / zigzag ----------------------------------------------------- *)

(* LEB128 on the non-negative range; signed values go through the zigzag
   map first so small magnitudes of either sign stay short.  OCaml ints are
   63-bit, hence the asr 62 in the forward map. *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag v = (v lsr 1) lxor (-(v land 1))

(* A 63-bit int read as unsigned takes at most 9 seven-bit groups. *)
let max_varint_bytes = 9

(* Writes [n] (read as unsigned) as LEB128 at [pos] and returns the
   position after it.  The caller guarantees [max_varint_bytes] of room.
   Inlined, so a one-byte value costs one test and one store. *)
let[@inline] put_varint buf pos n =
  let n = ref n and pos = ref pos in
  while !n land -0x80 <> 0 do
    Bytes.unsafe_set buf !pos (Char.unsafe_chr (!n land 0x7f lor 0x80));
    n := !n lsr 7;
    incr pos
  done;
  Bytes.unsafe_set buf !pos (Char.unsafe_chr !n);
  !pos + 1

let[@inline] put_zigzag buf pos n = put_varint buf pos (zigzag n)

let put_u32_le buf pos n =
  Bytes.unsafe_set buf pos (Char.unsafe_chr (n land 0xff));
  Bytes.unsafe_set buf (pos + 1) (Char.unsafe_chr ((n lsr 8) land 0xff));
  Bytes.unsafe_set buf (pos + 2) (Char.unsafe_chr ((n lsr 16) land 0xff));
  Bytes.unsafe_set buf (pos + 3) (Char.unsafe_chr ((n lsr 24) land 0xff))

(* --- writer -------------------------------------------------------------- *)

let check_arities arities =
  if Array.length arities = 0 || Array.length arities > max_kinds then
    invalid_arg "Tracestore: kind count must be in 1..62";
  Array.iter
    (fun a ->
      if a < 0 || a > 4 then invalid_arg "Tracestore: arity must be in 0..4")
    arities

(* The largest encoding of a block of [rows] rows, length prefixes
   included: a header of five varints, and per row a time varint, a kind
   byte and up to four argument varints. *)
let max_block_bytes rows =
  8 + (5 * max_varint_bytes) + (rows * (1 + (5 * max_varint_bytes)))

(* Argument column [j] of rows [0, n): one zigzag varint per row whose kind
   carries it.  Returns the position after the column. *)
let put_column buf pos ~(arities : int array) ~kinds col (j : int) n =
  let pos = ref pos in
  for i = 0 to n - 1 do
    if arities.(kinds.(i)) > j then pos := put_zigzag buf !pos col.(i)
  done;
  !pos

module Writer = struct
  type t = {
    oc : out_channel;
    arities : int array;
    block_events : int;
    times : int array;
    kinds : int array;
    col_a : int array;
    col_b : int array;
    col_c : int array;
    col_d : int array;
    buf : Bytes.t;  (* one encoded block, sized by [max_block_bytes] *)
    mutable count : int;  (* rows buffered in the current block *)
    mutable min_time : int;
    mutable max_time : int;
    mutable kind_mask : int;
    mutable pmask : int;
    mutable written : int;
    mutable blocks : int;
  }

  let create ?(block_events = default_block_events) ~arities oc =
    if block_events <= 0 then
      invalid_arg "Tracestore.Writer.create: block_events must be positive";
    check_arities arities;
    output_string oc magic;
    output_char oc (Char.chr (Array.length arities));
    Array.iter (fun a -> output_char oc (Char.chr a)) arities;
    {
      oc;
      arities = Array.copy arities;
      block_events;
      times = Array.make block_events 0;
      kinds = Array.make block_events 0;
      col_a = Array.make block_events 0;
      col_b = Array.make block_events 0;
      col_c = Array.make block_events 0;
      col_d = Array.make block_events 0;
      buf = Bytes.create (max_block_bytes block_events);
      count = 0;
      min_time = max_int;
      max_time = min_int;
      kind_mask = 0;
      pmask = 0;
      written = 0;
      blocks = 0;
    }

  (* The block is encoded in place: its header after a 4-byte gap, then
     its body after another, and the two lengths go into the gaps. *)
  let flush_block w =
    if w.count > 0 then begin
      let n = w.count and buf = w.buf in
      let pos = put_varint buf 4 n in
      let pos = put_zigzag buf pos w.min_time in
      let pos = put_zigzag buf pos w.max_time in
      let pos = put_varint buf pos w.kind_mask in
      let pos = put_varint buf pos w.pmask in
      put_u32_le buf 0 (pos - 4);
      let body = pos + 4 in
      (* Time column: deltas against the previous row, the first against
         the block's min; zigzag because a ring truncation or an unordered
         source may hand us non-monotone times. *)
      let pos = ref body and prev = ref w.min_time in
      for i = 0 to n - 1 do
        let t = w.times.(i) in
        pos := put_zigzag buf !pos (t - !prev);
        prev := t
      done;
      for i = 0 to n - 1 do
        Bytes.unsafe_set buf (!pos + i) (Char.unsafe_chr w.kinds.(i))
      done;
      let arities = w.arities and kinds = w.kinds in
      let pos = put_column buf (!pos + n) ~arities ~kinds w.col_a 0 n in
      let pos = put_column buf pos ~arities ~kinds w.col_b 1 n in
      let pos = put_column buf pos ~arities ~kinds w.col_c 2 n in
      let pos = put_column buf pos ~arities ~kinds w.col_d 3 n in
      put_u32_le buf (body - 4) (pos - body);
      output w.oc buf 0 pos;
      w.blocks <- w.blocks + 1;
      w.count <- 0;
      w.min_time <- max_int;
      w.max_time <- min_int;
      w.kind_mask <- 0;
      w.pmask <- 0
    end

  let append w ~time ~kind ~pmask ~a ~b ~c ~d =
    if kind < 0 || kind >= Array.length w.arities then
      invalid_arg "Tracestore.Writer.append: kind out of range";
    let i = w.count in
    w.times.(i) <- time;
    w.kinds.(i) <- kind;
    w.col_a.(i) <- a;
    w.col_b.(i) <- b;
    w.col_c.(i) <- c;
    w.col_d.(i) <- d;
    if time < w.min_time then w.min_time <- time;
    if time > w.max_time then w.max_time <- time;
    w.kind_mask <- w.kind_mask lor (1 lsl kind);
    w.pmask <- w.pmask lor pmask;
    w.count <- i + 1;
    w.written <- w.written + 1;
    if w.count = w.block_events then flush_block w

  let events_written w = w.written
  let blocks_written w = w.blocks
end

(* --- reading ------------------------------------------------------------- *)

type filter = Rthv_obs.Tracestore.filter = {
  t_min : int option;
  t_max : int option;
  kind_mask : int option;
  pmask : int option;
}

let pass_all = { t_min = None; t_max = None; kind_mask = None; pmask = None }

type stats = Rthv_obs.Tracestore.stats = {
  s_blocks : int;
  s_blocks_scanned : int;
  s_rows : int;
  s_matched : int;
}

let read_header ic =
  let m = Bytes.create (String.length magic) in
  (try really_input ic m 0 (String.length magic)
   with End_of_file -> corrupt "missing %s magic" format_name);
  if Bytes.to_string m <> magic then corrupt "bad magic (not a %s file)" format_name;
  let n_kinds =
    try Char.code (input_char ic) with End_of_file -> corrupt "truncated header"
  in
  if n_kinds = 0 || n_kinds > max_kinds then
    corrupt "kind count %d out of range" n_kinds;
  Array.init n_kinds (fun _ ->
      let a =
        try Char.code (input_char ic)
        with End_of_file -> corrupt "truncated arity table"
      in
      if a > 4 then corrupt "arity %d out of range" a;
      a)

let arities path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_header ic)

(* Reusable decode buffers, grown on demand: a scan over a million events
   touches every block with the same six arrays. *)
type scratch = {
  mutable cap : int;
  mutable times : int array;
  mutable kinds : int array;
  mutable cols : int array array;  (* 4 columns *)
  mutable bytes : Bytes.t;
  header : int array;  (* the current block's five header fields *)
  len : Bytes.t;  (* the last three bytes of a length prefix *)
}

let ensure_rows sc n =
  if n > sc.cap then begin
    let cap = Stdlib.max n (2 * sc.cap) in
    sc.cap <- cap;
    sc.times <- Array.make cap 0;
    sc.kinds <- Array.make cap 0;
    sc.cols <- Array.init 4 (fun _ -> Array.make cap 0)
  end

let ensure_bytes sc n =
  if Bytes.length sc.bytes < n then
    sc.bytes <- Bytes.create (Stdlib.max n (2 * Bytes.length sc.bytes))

(* A 4-byte little-endian length, or None at a clean end of file. *)
let read_u32_le_opt ic sc =
  match input_char ic with
  | exception End_of_file -> None
  | c0 ->
      let b = sc.len in
      (try really_input ic b 0 3
       with End_of_file -> corrupt "truncated block length");
      Some
        (Char.code c0
        lor (Char.code (Bytes.get b 0) lsl 8)
        lor (Char.code (Bytes.get b 1) lsl 16)
        lor (Char.code (Bytes.get b 2) lsl 24))

(* The one varint reader, for block headers and bodies alike: decodes the
   LEB128 value at [pos] into [dst.(i)] and returns the position after it.
   No byte at or past [limit] is read and callers keep [limit] within
   [Bytes.length data], so every [unsafe_get] follows a [pos < limit]
   check.  It is inlined into each loop, so no value costs a call and a
   one-byte value returns on the first branch.  Errors are raised
   directly, not through [corrupt], so that no loop variable is live
   across a call. *)
let[@inline] get_varint data pos limit dst i =
  if pos >= limit then raise (Corrupt "truncated varint");
  let byte = Char.code (Bytes.unsafe_get data pos) in
  if byte < 0x80 then begin
    dst.(i) <- byte;
    pos + 1
  end
  else begin
    let v = ref (byte land 0x7f) and shift = ref 7 and p = ref (pos + 1) in
    let more = ref true in
    while !more do
      if !p >= limit then raise (Corrupt "truncated varint");
      let byte = Char.code (Bytes.unsafe_get data !p) in
      v := !v lor ((byte land 0x7f) lsl !shift);
      incr p;
      if byte < 0x80 then more := false
      else begin
        shift := !shift + 7;
        if !shift > 62 then raise (Corrupt "varint overflows a 63-bit int")
      end
    done;
    dst.(i) <- !v;
    !p
  end

(* The header in [sc.bytes.[0, len)] into [sc.header]: row count, zigzag
   min and max time, kind bitmap, partition bitmap.  Bytes after the five
   fields are ignored. *)
let decode_header sc len =
  let data = sc.bytes and h = sc.header in
  let pos = get_varint data 0 len h 0 in
  let pos = get_varint data pos len h 1 in
  let pos = get_varint data pos len h 2 in
  let pos = get_varint data pos len h 3 in
  ignore (get_varint data pos len h 4 : int)

(* The body in [sc.bytes.[0, len)] into the scratch columns: [n] absolute
   times, [n] kinds, then the argument columns, 0 where a kind has no
   such argument.  The body must end exactly at [len]. *)
let decode_body sc ~arities ~min_time n len =
  let data = sc.bytes and times = sc.times and kinds = sc.kinds in
  let n_kinds = Array.length arities in
  let pos = ref 0 and prev = ref min_time in
  for i = 0 to n - 1 do
    pos := get_varint data !pos len times i;
    let t = !prev + unzigzag times.(i) in
    times.(i) <- t;
    prev := t
  done;
  for i = 0 to n - 1 do
    let p = !pos in
    if p >= len then raise (Corrupt "truncated kind column");
    let k = Char.code (Bytes.unsafe_get data p) in
    if k >= n_kinds then
      raise (Corrupt (Printf.sprintf "kind %d out of range" k));
    kinds.(i) <- k;
    pos := p + 1
  done;
  for j = 0 to 3 do
    let col = sc.cols.(j) in
    for i = 0 to n - 1 do
      if arities.(kinds.(i)) > j then begin
        pos := get_varint data !pos len col i;
        col.(i) <- unzigzag col.(i)
      end
      else col.(i) <- 0
    done
  done;
  if !pos <> len then corrupt "trailing bytes in block body"

let scan ?(filter = pass_all) path ~f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let arities = read_header ic in
      let file_len = in_channel_length ic in
      (* A declared length never exceeds what the file still holds, so a
         flipped length byte cannot become a multi-gigabyte allocation. *)
      let check_length what len =
        let left = file_len - pos_in ic in
        if len > left then
          corrupt "block %s length %d exceeds the %d bytes left" what len left
      in
      let sc =
        {
          cap = 0;
          times = [||];
          kinds = [||];
          cols = [||];
          bytes = Bytes.create 0;
          header = Array.make 5 0;
          len = Bytes.create 3;
        }
      in
      let blocks = ref 0
      and scanned = ref 0
      and rows = ref 0
      and matched = ref 0 in
      let continue = ref true in
      while !continue do
        match read_u32_le_opt ic sc with
        | None -> continue := false
        | Some header_len ->
            incr blocks;
            check_length "header" header_len;
            ensure_bytes sc header_len;
            (try really_input ic sc.bytes 0 header_len
             with End_of_file -> corrupt "truncated block header");
            decode_header sc header_len;
            let n = sc.header.(0) in
            let min_time = unzigzag sc.header.(1) in
            let max_time = unzigzag sc.header.(2) in
            let kind_mask = sc.header.(3) in
            let block_pmask = sc.header.(4) in
            let body_len =
              match read_u32_le_opt ic sc with
              | Some l -> l
              | None -> corrupt "missing block body"
            in
            check_length "body" body_len;
            if n < 0 then corrupt "negative row count";
            (* Every row takes at least a time varint and a kind byte. *)
            if n > body_len / 2 then
              corrupt "%d rows cannot fit a %d-byte block body" n body_len;
            let skip =
              (match filter.t_min with Some t -> max_time < t | None -> false)
              || (match filter.t_max with Some t -> min_time > t | None -> false)
              || (match filter.kind_mask with
                 | Some m -> m land kind_mask = 0
                 | None -> false)
              || match filter.pmask with
                 | Some m -> m land block_pmask = 0
                 | None -> false
            in
            if skip then seek_in ic (pos_in ic + body_len)
            else begin
              incr scanned;
              rows := !rows + n;
              ensure_rows sc n;
              ensure_bytes sc body_len;
              (try really_input ic sc.bytes 0 body_len
               with End_of_file -> corrupt "truncated block body");
              decode_body sc ~arities ~min_time n body_len;
              let kmask =
                match filter.kind_mask with Some m -> m | None -> -1
              in
              let lo = match filter.t_min with Some t -> t | None -> min_int in
              let hi = match filter.t_max with Some t -> t | None -> max_int in
              let ca = sc.cols.(0)
              and cb = sc.cols.(1)
              and cc = sc.cols.(2)
              and cd = sc.cols.(3) in
              for i = 0 to n - 1 do
                let t = sc.times.(i) and k = sc.kinds.(i) in
                if t >= lo && t <= hi && kmask land (1 lsl k) <> 0 then begin
                  incr matched;
                  f ~time:t ~kind:k ~a:ca.(i) ~b:cb.(i) ~c:cc.(i) ~d:cd.(i)
                end
              done
            end
      done;
      {
        s_blocks = !blocks;
        s_blocks_scanned = !scanned;
        s_rows = !rows;
        s_matched = !matched;
      })
