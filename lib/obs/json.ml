type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Most strings (names, codes, numbers rendered as text) need no escaping:
   return them as they are instead of copying them through a buffer. *)
let escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* JSON has no NaN/Infinity; null is the conventional stand-in. *)
      if Float.is_finite f then Buffer.add_string buf (float_repr f)
      else Buffer.add_string buf "null"
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  to_buffer buf t;
  Buffer.contents buf

(* --- parser ------------------------------------------------------------- *)

exception Parse_error of int * string

let parse input =
  let n = String.length input in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | Some x -> fail (Printf.sprintf "expected %c, found %c" c x)
    | None -> fail (Printf.sprintf "expected %c, found end of input" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub input !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        let c = input.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
            if !pos >= n then fail "unterminated escape";
            let e = input.[!pos] in
            advance ();
            match e with
            | '"' | '\\' | '/' ->
                Buffer.add_char buf e;
                loop ()
            | 'n' ->
                Buffer.add_char buf '\n';
                loop ()
            | 'r' ->
                Buffer.add_char buf '\r';
                loop ()
            | 't' ->
                Buffer.add_char buf '\t';
                loop ()
            | 'b' ->
                Buffer.add_char buf '\b';
                loop ()
            | 'f' ->
                Buffer.add_char buf '\012';
                loop ()
            | 'u' ->
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex = String.sub input !pos 4 in
                pos := !pos + 4;
                (match int_of_string_opt ("0x" ^ hex) with
                | None -> fail "invalid \\u escape"
                | Some code when code < 0x80 ->
                    Buffer.add_char buf (Char.chr code)
                | Some _ ->
                    (* Non-ASCII escapes don't occur in our own output; a
                       replacement keeps the parser total. *)
                    Buffer.add_char buf '?');
                loop ()
            | c -> fail (Printf.sprintf "invalid escape \\%c" c))
        | c when Char.code c < 0x20 -> fail "unescaped control character"
        | c ->
            Buffer.add_char buf c;
            loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let rec digits () =
      match peek () with
      | Some '0' .. '9' ->
          advance ();
          digits ()
      | _ -> ()
    in
    digits ();
    (match peek () with
    | Some '.' ->
        is_float := true;
        advance ();
        digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub input start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "invalid number %S" text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          (* Out of int range: fall back to float. *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "invalid number %S" text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((key, value) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, value) :: acc))
            | _ -> fail "expected , or } in object"
          in
          fields []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (value :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (value :: acc))
            | _ -> fail "expected , or ] in array"
          in
          items []
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  match
    let value = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after document";
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
