type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- emitter ------------------------------------------------------------ *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* The first index at or after [i] whose character needs escaping, or
   [n]. *)
let rec clean_until s i n =
  if i < n && not (needs_escape (String.unsafe_get s i)) then
    clean_until s (i + 1) n
  else i

let hex_digit d = String.unsafe_get "0123456789abcdef" d

let add_escaped buf s =
  let n = String.length s in
  let first = clean_until s 0 n in
  if first = n then Buffer.add_string buf s
  else begin
    Buffer.add_substring buf s 0 first;
    for i = first to n - 1 do
      match String.unsafe_get s i with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf (hex_digit (Char.code c lsr 4));
          Buffer.add_char buf (hex_digit (Char.code c land 15))
      | c -> Buffer.add_char buf c
    done
  end

(* Most strings (names, codes, numbers rendered as text) need no escaping:
   return them as they are instead of copying them through a buffer. *)
let escape s =
  let n = String.length s in
  if clean_until s 0 n = n then s
  else begin
    let buf = Buffer.create (n + 8) in
    add_escaped buf s;
    Buffer.contents buf
  end

(* The digits of a non-positive [n], most significant first.  Counting on
   the negative side covers [min_int], whose magnitude is no [int]. *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf i
  end
  else add_neg_digits buf (-i)

(* The conversion [Printf]'s ["%.12g"] ends in. *)
external format_float : string -> float -> string = "caml_format_float"

(* A finite float: an integral one below 1e15 is exact as an int, so its
   ["%.1f"] is its digits and ".0" (with the sign of [-0.0]). *)
let add_float buf f =
  if Float.is_integer f && Float.abs f < 1e15 then begin
    if Float.sign_bit f && f = 0. then Buffer.add_char buf '-';
    add_int buf (int_of_float f);
    Buffer.add_string buf ".0"
  end
  else Buffer.add_string buf (format_float "%.12g" f)

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f ->
      (* JSON has no NaN/Infinity; null is the conventional stand-in. *)
      if Float.is_finite f then add_float buf f
      else Buffer.add_string buf "null"
  | String s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      add_items buf 0 items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      add_fields buf 0 fields;
      Buffer.add_char buf '}'

and add_items buf i = function
  | [] -> ()
  | item :: items ->
      if i > 0 then Buffer.add_char buf ',';
      to_buffer buf item;
      add_items buf (i + 1) items

and add_fields buf i = function
  | [] -> ()
  | (k, v) :: fields ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      add_escaped buf k;
      Buffer.add_string buf "\":";
      to_buffer buf v;
      add_fields buf (i + 1) fields

let to_string t =
  let buf = Buffer.create 256 in
  to_buffer buf t;
  Buffer.contents buf

(* --- parser ------------------------------------------------------------- *)

exception Parse_error of int * string

(* Far deeper than any document the tools write (a certify artifact nests
   7 levels), and shallow enough that the recursive descent never nears
   the stack limit. *)
let max_depth = 512

(* One cursor per [parse] call: the parser keeps no state between calls,
   so domains may parse concurrently. *)
type cursor = { input : string; n : int; mutable pos : int }

let fail c msg = raise (Parse_error (c.pos, msg))
let at c ch = c.pos < c.n && String.unsafe_get c.input c.pos = ch

(* Steps over [ch] if it comes next. *)
let skip c ch =
  at c ch
  && begin
       c.pos <- c.pos + 1;
       true
     end

let rec skip_ws c =
  if c.pos < c.n then
    match String.unsafe_get c.input c.pos with
    | ' ' | '\t' | '\n' | '\r' ->
        c.pos <- c.pos + 1;
        skip_ws c
    | _ -> ()

let expect c ch =
  if c.pos >= c.n then
    fail c (Printf.sprintf "expected %c, found end of input" ch)
  else
    let x = String.unsafe_get c.input c.pos in
    if x = ch then c.pos <- c.pos + 1
    else fail c (Printf.sprintf "expected %c, found %c" ch x)

let rec matches_at input pos word i =
  i = String.length word
  || String.unsafe_get input (pos + i) = String.unsafe_get word i
     && matches_at input pos word (i + 1)

let literal c word value =
  let l = String.length word in
  if c.pos + l <= c.n && matches_at c.input c.pos word 0 then begin
    c.pos <- c.pos + l;
    value
  end
  else fail c (Printf.sprintf "invalid literal (expected %s)" word)

(* The rest of a string from its first escape (or control character, or
   the end of input) on: character by character into [buf]. *)
let rec parse_escaped c buf =
  if c.pos >= c.n then fail c "unterminated string"
  else
    let ch = c.input.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents buf
    | '\\' -> (
        if c.pos >= c.n then fail c "unterminated escape";
        let e = c.input.[c.pos] in
        c.pos <- c.pos + 1;
        match e with
        | '"' | '\\' | '/' | 'n' | 'r' | 't' | 'b' | 'f' ->
            Buffer.add_char buf
              (match e with
              | 'n' -> '\n'
              | 'r' -> '\r'
              | 't' -> '\t'
              | 'b' -> '\b'
              | 'f' -> '\012'
              | e -> e);
            parse_escaped c buf
        | 'u' ->
            if c.pos + 4 > c.n then fail c "truncated \\u escape";
            let hex = String.sub c.input c.pos 4 in
            c.pos <- c.pos + 4;
            (match int_of_string_opt ("0x" ^ hex) with
            | None -> fail c "invalid \\u escape"
            | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
            | Some _ ->
                (* Non-ASCII escapes don't occur in our own output; a
                   replacement keeps the parser total. *)
                Buffer.add_char buf '?');
            parse_escaped c buf
        | e -> fail c (Printf.sprintf "invalid escape \\%c" e))
    | ch when Char.code ch < 0x20 -> fail c "unescaped control character"
    | ch ->
        Buffer.add_char buf ch;
        parse_escaped c buf

(* A string without escapes, the usual case, is one [String.sub]. *)
let parse_string c =
  expect c '"';
  let start = c.pos in
  let stop = clean_until c.input start c.n in
  if stop < c.n && String.unsafe_get c.input stop = '"' then begin
    c.pos <- stop + 1;
    String.sub c.input start (stop - start)
  end
  else begin
    let buf = Buffer.create 16 in
    Buffer.add_substring buf c.input start (stop - start);
    c.pos <- stop;
    parse_escaped c buf
  end

let is_digit = function '0' .. '9' -> true | _ -> false

let rec skip_digits c =
  if c.pos < c.n && is_digit (String.unsafe_get c.input c.pos) then begin
    c.pos <- c.pos + 1;
    skip_digits c
  end

(* An int of at most 18 digits (below 10^18 < max_int) is added up while
   it is scanned; floats and longer ints convert their text. *)
let parse_number c =
  let start = c.pos in
  let neg = skip c '-' in
  let first = c.pos in
  let acc = ref 0 in
  while c.pos < c.n && is_digit (String.unsafe_get c.input c.pos) do
    acc := (!acc * 10) + Char.code (String.unsafe_get c.input c.pos) - 48;
    c.pos <- c.pos + 1
  done;
  let digits = c.pos - first in
  let fraction = skip c '.' in
  if fraction then skip_digits c;
  let exponent = skip c 'e' || skip c 'E' in
  if exponent then begin
    ignore (skip c '+' || skip c '-');
    skip_digits c
  end;
  let is_float = fraction || exponent in
  if (not is_float) && digits >= 1 && digits <= 18 then
    Int (if neg then - !acc else !acc)
  else
    let text = String.sub c.input start (c.pos - start) in
    if is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail c (Printf.sprintf "invalid number %S" text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          (* Out of int range: fall back to float. *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail c (Printf.sprintf "invalid number %S" text))

(* The bracket of a container [depth] levels deep: past [max_depth] it is
   an error. *)
let open_container c depth =
  if depth >= max_depth then
    fail c (Printf.sprintf "nesting deeper than %d levels" max_depth);
  c.pos <- c.pos + 1;
  skip_ws c

let rec parse_value c depth =
  skip_ws c;
  if c.pos >= c.n then fail c "unexpected end of input"
  else
    match String.unsafe_get c.input c.pos with
    | '"' -> String (parse_string c)
    | 't' -> literal c "true" (Bool true)
    | 'f' -> literal c "false" (Bool false)
    | 'n' -> literal c "null" Null
    | '{' ->
        open_container c depth;
        Obj (if skip c '}' then [] else parse_fields c (depth + 1))
    | '[' ->
        open_container c depth;
        List (if skip c ']' then [] else parse_items c (depth + 1))
    | '-' | '0' .. '9' -> parse_number c
    | ch -> fail c (Printf.sprintf "unexpected character %c" ch)

(* Both lists are built front to back ([tail_mod_cons]): no reversal, and
   no stack growth with their length. *)
and[@tail_mod_cons] parse_fields c depth =
  skip_ws c;
  let key = parse_string c in
  skip_ws c;
  expect c ':';
  let value = parse_value c depth in
  skip_ws c;
  if skip c ',' then (key, value) :: parse_fields c depth
  else if skip c '}' then [ (key, value) ]
  else raise (Parse_error (c.pos, "expected , or } in object"))

and[@tail_mod_cons] parse_items c depth =
  let value = parse_value c depth in
  skip_ws c;
  if skip c ',' then value :: parse_items c depth
  else if skip c ']' then [ value ]
  else raise (Parse_error (c.pos, "expected , or ] in array"))

let parse input =
  let c = { input; n = String.length input; pos = 0 } in
  match
    let value = parse_value c 0 in
    skip_ws c;
    if c.pos <> c.n then fail c "trailing garbage after document";
    value
  with
  | value -> Ok value
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "at offset %d: %s" at msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_list = function List items -> Some items | _ -> None
