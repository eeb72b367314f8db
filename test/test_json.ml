(* The JSON kernel against the reference codec (Json_ref): the same bytes
   out of the emitter, and the same tree or the same error string, offset
   included, out of the parser — on generated documents and text, on the
   pinned certify artifacts and quickstart's JSONL export cut short and
   mutated, and on the edge inputs of the number and string grammars.
   The nesting limit is the one place the two differ on purpose. *)

module Json = Rthv_obs.Json

(* Floats compare by their bits, so 0.0 and -0.0 differ. *)
let rec same a b =
  match (a, b) with
  | Json.Float x, Json.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys -> List.equal same xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.equal (fun (k, v) (k', v') -> String.equal k k' && same v v') xs ys
  | Json.Float _, _ | _, Json.Float _ | Json.List _, _ | Json.Obj _, _ -> false
  | _ -> a = b

let same_parse text =
  match (Json.parse text, Json_ref.parse text) with
  | Ok a, Ok b -> same a b
  | Error a, Error b -> String.equal a b
  | _ -> false

let check_parse text =
  if not (same_parse text) then
    let show = function
      | Ok v -> "Ok " ^ Json_ref.to_string v
      | Error e -> "Error " ^ e
    in
    Alcotest.failf "parse %S: %s, reference %s" text
      (show (Json.parse text))
      (show (Json_ref.parse text))

(* --- generators ------------------------------------------------------- *)

let edge_ints = [ 0; 1; -1; 9; 10; -10; 99; 100; min_int; max_int; min_int + 1 ]

let edge_floats =
  [
    0.;
    -0.;
    1.;
    -1.;
    0.5;
    1e15 -. 1.;
    -.(1e15 -. 1.);
    1e15;
    -1e15;
    1e15 +. 1.;
    1e15 +. 2.;
    999999999999999.5;
    123456789012.5;
    4503599627370496.;
    1e300;
    Float.min_float;
    5e-324;
    2.2250738585072009e-308;
    Float.max_float;
    Float.nan;
    Float.infinity;
    Float.neg_infinity;
  ]

let gen_int =
  let open QCheck2.Gen in
  frequency
    [
      (2, oneofl edge_ints);
      (3, small_signed_int);
      (2, int);
      (1, map (fun k -> Int.shift_left 1 k - 1) (int_range 0 62));
    ]

let gen_float =
  let open QCheck2.Gen in
  frequency
    [
      (2, oneofl edge_floats);
      (2, map Int64.float_of_bits int64);
      (2, map float_of_int (int_range (-2_000_000) 2_000_000));
      (1, map (fun f -> Float.round (f *. 1e16)) (float_range (-1.) 1.));
      (2, float_range (-1e6) 1e6);
      (1, map (fun i -> float_of_int i /. 8.) small_signed_int);
    ]

let gen_string =
  let open QCheck2.Gen in
  frequency
    [
      (3, string_size ~gen:char (int_bound 12));
      (2, string_size ~gen:printable (int_bound 12));
      (1, oneofl [ ""; "\"\\/\b\012\n\r\t"; "\x00\x1f\x7f\x80\xff" ]);
    ]

let gen_doc =
  let open QCheck2.Gen in
  let leaf =
    frequency
      [
        (1, pure Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        (3, map (fun i -> Json.Int i) gen_int);
        (3, map (fun f -> Json.Float f) gen_float);
        (3, map (fun s -> Json.String s) gen_string);
      ]
  in
  sized_size (int_bound 40)
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (1, leaf);
               ( 2,
                 map
                   (fun l -> Json.List l)
                   (list_size (int_bound 5) (self (n / 3))) );
               ( 2,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 5) (pair gen_string (self (n / 3)))) );
             ])

(* Text near the grammar: documents, then cut, mutated or padded; and
   short runs of the grammar's own characters. *)
let gen_text =
  let open QCheck2.Gen in
  let doc_text = map Json_ref.to_string gen_doc in
  let alphabet =
    [ '{'; '}'; '['; ']'; ','; ':'; '"'; '\\'; 'u'; '0'; '1'; '9'; '-';
      '+'; '.'; 'e'; 'E'; 't'; 'r'; 'n'; 'l'; 'f'; 'a'; 's'; ' '; '\n';
      '\001'; '_'; 'x'; '/'; 'b' ]
  in
  let edit (s, i, c) mode =
    let n = String.length s in
    let i = if n = 0 then 0 else i mod n in
    match mode with
    | 0 -> String.sub s 0 i
    | 1 when n > 0 -> String.mapi (fun j x -> if j = i then c else x) s
    | _ -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
  in
  frequency
    [
      (2, doc_text);
      ( 4,
        map2 edit
          (triple doc_text nat (oneof [ char; oneofl alphabet ]))
          (int_bound 2) );
      (2, string_size ~gen:(oneofl alphabet) (int_bound 24));
      (1, map (fun s -> " \t" ^ s ^ "\r\n ") doc_text);
    ]

(* --- emitter ----------------------------------------------------------- *)

let prop_to_string =
  Testutil.qtest ~count:2000 "to_string gives the reference's bytes" gen_doc
    (fun doc -> String.equal (Json.to_string doc) (Json_ref.to_string doc))

let test_edge_values () =
  let all_bytes = String.init 256 Char.chr in
  Alcotest.(check string)
    "escape of every byte" (Json_ref.escape all_bytes) (Json.escape all_bytes);
  let docs =
    Json.String all_bytes
    :: List.map (fun i -> Json.Int i) edge_ints
    @ List.map (fun f -> Json.Float f) edge_floats
  in
  List.iter
    (fun doc ->
      Alcotest.(check string)
        "same bytes" (Json_ref.to_string doc) (Json.to_string doc))
    docs;
  Alcotest.(check string)
    "-0.0 keeps its sign, ints are decimal" "[-0.0,0.0,-4611686018427387904]"
    (Json.to_string
       (Json.List [ Json.Float (-0.); Json.Float 0.; Json.Int min_int ]))

(* --- parser ------------------------------------------------------------ *)

let prop_parse =
  Testutil.qtest ~count:5000 "parse gives the reference's tree or error"
    gen_text same_parse

let edge_inputs =
  [
    "";
    " ";
    "-";
    "1e";
    "1e+";
    "1.";
    "-.5";
    ".5";
    "00";
    "-0";
    "-00";
    "0123";
    "123456789012345678";
    "-123456789012345678";
    "1234567890123456789";
    "-1234567890123456789";
    "4611686018427387903";
    "4611686018427387904";
    "-4611686018427387904";
    "-4611686018427387905";
    "99999999999999999999";
    "1E5";
    "1e-400";
    "1e400";
    "[1,]";
    "{\"a\":1,}";
    "{";
    "{\"a\"";
    "{\"a\":";
    "{\"a\" 1}";
    "[1 2]";
    "tru";
    "nul";
    "falsey";
    "\"\\u0_41\"";
    "\"\\u00e9\"";
    "\"\\u12\"";
    "\"\\uzzzz\"";
    "\"\\x\"";
    "\"abc";
    "\"abc\\";
    "\"a\001b\"";
    "\"a\x7fb\"";
    "[\"ok\",\"tab\\t\",\"q\\\"\",\"\\/\"]";
    "1 2";
  ]

let test_edge_inputs () = List.iter check_parse edge_inputs

(* [text] cut short at each of [cuts] offsets spread evenly over it (at
   every offset when [cuts] is not given), and with one byte replaced at
   each of [k] positions. *)
let cuts_and_mutations ?cuts ~k text =
  let n = String.length text in
  let spread k f =
    let k = Int.min k n in
    for j = 0 to k - 1 do
      f j (j * n / k)
    done
  in
  spread (Option.value cuts ~default:n) (fun _ i ->
      check_parse (String.sub text 0 i));
  let bytes = "\"\\{}[],:0-e.x \001\255" in
  spread k (fun j i ->
      let c = bytes.[j mod String.length bytes] in
      check_parse (String.mapi (fun p x -> if p = i then c else x) text))

(* Each pinned artifact, cut short and mutated.  Cutting all eleven
   (5-76 KB) at every offset would parse ~5 GB, so the two under 6 KB
   (cfg-0000 and cfg-0002) are cut at every offset and the others at
   200. *)
let test_artifacts () =
  List.iter
    (fun (_, s) ->
      check_parse s;
      let cuts = if String.length s <= 6_000 then None else Some 200 in
      cuts_and_mutations ?cuts ~k:50 s)
    (Lazy.force Testutil.pinned_artifacts)

let test_jsonl_export () =
  let config = Rthv_check.Scenarios.quickstart () in
  let trace = Rthv_core.Hyp_trace.create () in
  Rthv_core.Hyp_sim.run (Rthv_core.Hyp_sim.create ~trace config);
  let lines =
    String.split_on_char '\n' (Rthv_core.Trace_export.jsonl_string trace)
  in
  Alcotest.(check bool) "a full export" true (List.length lines > 10_000);
  List.iter (cuts_and_mutations ~k:4) lines

(* The one intended difference: a container past 512 levels is an error
   at its bracket, where the reference recursed until the stack ran out. *)
let test_nesting_limit () =
  let nest depth = String.make depth '[' ^ String.make depth ']' in
  let obj depth =
    String.concat "" (List.init depth (fun _ -> "{\"a\":"))
    ^ "1"
    ^ String.make depth '}'
  in
  let parses text = Result.is_ok (Json.parse text) in
  Alcotest.(check bool) "512 arrays parse" true (parses (nest 512));
  Alcotest.(check bool) "512 objects parse" true (parses (obj 512));
  let past at =
    Error (Printf.sprintf "at offset %d: nesting deeper than 512 levels" at)
  in
  let check = Alcotest.(check (result reject string)) in
  check "513 arrays" (past 512) (Json.parse (nest 513));
  check "513 objects" (past (5 * 512)) (Json.parse (obj 513));
  check "100000 open brackets" (past 512) (Json.parse (String.make 100_000 '['))

let suite =
  [
    prop_to_string;
    Alcotest.test_case "edge values render as the reference" `Quick
      test_edge_values;
    prop_parse;
    Alcotest.test_case "edge inputs parse as the reference" `Quick
      test_edge_inputs;
    Alcotest.test_case "cut and mutated artifacts parse as the reference"
      `Slow test_artifacts;
    Alcotest.test_case "cut and mutated JSONL lines parse as the reference"
      `Slow test_jsonl_export;
    Alcotest.test_case "nesting limit" `Quick test_nesting_limit;
  ]
