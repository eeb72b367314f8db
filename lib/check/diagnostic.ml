type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  loc : string;
  message : string;
  hint : string option;
}

let make severity ~code ~loc ?hint message =
  { code; severity; loc; message; hint }

let error = make Error
let warning = make Warning
let info = make Info

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2
let is_error d = d.severity = Error
let errors = List.filter is_error
let count severity diagnostics =
  List.length (List.filter (fun d -> d.severity = severity) diagnostics)

let sort diagnostics =
  List.stable_sort
    (fun a b ->
      match compare (severity_rank a.severity) (severity_rank b.severity) with
      | 0 -> (
          match String.compare a.code b.code with
          | 0 -> String.compare a.loc b.loc
          | c -> c)
      | c -> c)
    diagnostics

let dedupe diagnostics =
  List.fold_left
    (fun acc d ->
      match acc with
      | (d', n) :: rest when d' = d -> (d', n + 1) :: rest
      | _ -> (d, 1) :: acc)
    [] (sort diagnostics)
  |> List.rev

let pp ppf d =
  Format.fprintf ppf "%s[%s] %s: %s" (severity_name d.severity) d.code d.loc
    d.message;
  match d.hint with
  | Some hint -> Format.fprintf ppf "@.  hint: %s" hint
  | None -> ()

let pp_counted ppf (d, n) =
  Format.fprintf ppf "%s[%s] %s: %s" (severity_name d.severity) d.code d.loc
    d.message;
  if n > 1 then Format.fprintf ppf "  (x%d)" n;
  match d.hint with
  | Some hint -> Format.fprintf ppf "@.  hint: %s" hint
  | None -> ()

let pp_report ppf diagnostics =
  List.iter
    (fun entry -> Format.fprintf ppf "%a@." pp_counted entry)
    (dedupe diagnostics);
  Format.fprintf ppf "%d error(s), %d warning(s), %d info@."
    (count Error diagnostics)
    (count Warning diagnostics)
    (count Info diagnostics)

(* Minimal RFC 8259 string escaping; diagnostics are ASCII in practice. *)
let json_escape s =
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

let to_json ?(extra = []) d =
  let field (k, v) = Printf.sprintf "%S:\"%s\"" k (json_escape v) in
  let fields =
    List.map field extra
    @ [
        field ("code", d.code);
        field ("severity", severity_name d.severity);
        field ("loc", d.loc);
        field ("message", d.message);
      ]
    @ (match d.hint with Some h -> [ field ("hint", h) ] | None -> [])
  in
  "{" ^ String.concat "," fields ^ "}"
