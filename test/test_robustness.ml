(* The certify-side decoders at their input boundary: every mutation of a
   committed artifact or scenario config either decodes or fails with a
   typed error, never an exception.  Inputs are the pinned certify
   artifacts and the scenarios' config JSON; mutations are field rewrites
   (each number list emptied; 0 and -1 for every slot, refill, capacity,
   per_cycle, cycle and plan weight), cuts and byte flips. *)

module Config = Rthv_core.Config
module Certify = Rthv_check.Certify
module Config_codec = Rthv_check.Config_codec

let inputs =
  lazy
    (Lazy.force Testutil.pinned_artifacts
    @ List.filter_map
        (fun (name, make) ->
          match Config_codec.to_string (make ()) with
          | Ok s -> Some (name ^ ".json", s)
          | Error _ -> None)
        Rthv_check.Scenarios.all)

(* Both decoders, and the validation of whatever decodes, return. *)
let decodes_or_fails what text =
  let raised f e = Alcotest.failf "%s: %s raised %s" what f (Printexc.to_string e) in
  (match Certify.recheck_string text with
  | Ok () | Error _ -> ()
  | exception e -> raised "Certify.recheck_string" e);
  match Config_codec.of_string text with
  | Error _ -> ()
  | Ok config -> (
      match Config.validate config with
      | Ok () | Error _ -> ()
      | exception e -> raised "Config.validate" e)
  | exception e -> raised "Config_codec.of_string" e

(* Offsets just past each ["key":] in [text]. *)
let values_of text key =
  let pat = "\"" ^ key ^ "\":" in
  let n = String.length pat and len = String.length text in
  let rec matches i k = k = n || (text.[i + k] = pat.[k] && matches i (k + 1)) in
  let rec from i acc =
    if i + n > len then List.rev acc
    else if matches i 0 then from (i + n) ((i + n) :: acc)
    else from (i + 1) acc
  in
  from 0 []

let is_num c = (c >= '0' && c <= '9') || c = '-'

(* The end of the number starting at [i]. *)
let number_end text i =
  let j = ref i in
  while !j < String.length text && is_num text.[!j] do
    incr j
  done;
  !j

let splice text i j s =
  String.sub text 0 i ^ s ^ String.sub text j (String.length text - j)

(* Every non-empty list of numbers, as [(start, stop)] of its contents. *)
let number_lists text =
  let len = String.length text in
  let rec scan i acc =
    if i >= len then List.rev acc
    else if text.[i] = '[' && i + 1 < len && is_num text.[i + 1] then begin
      let j = ref (i + 1) in
      while !j < len && (is_num text.[!j] || text.[!j] = ',') do
        incr j
      done;
      if !j < len && text.[!j] = ']' then scan (!j + 1) ((i + 1, !j) :: acc)
      else scan (i + 1) acc
    end
    else scan (i + 1) acc
  in
  scan 0 []

let rewrites text =
  let emptied = List.map (fun (i, j) -> splice text i j "") (number_lists text) in
  let ints =
    List.concat_map
      (fun key ->
        List.concat_map
          (fun i ->
            if i < String.length text && is_num text.[i] then
              let j = number_end text i in
              [ splice text i j "0"; splice text i j "-1" ]
            else [])
          (values_of text key))
      [ "slot"; "refill"; "capacity"; "per_cycle"; "cycle" ]
  in
  let weights =
    List.concat_map
      (fun i ->
        (* Each entry of the list starting at [i]. *)
        let rec entries k acc =
          if k >= String.length text || text.[k] = ']' then List.rev acc
          else if is_num text.[k] then
            let e = number_end text k in
            entries e ([ splice text k e "0"; splice text k e "-1" ] @ acc)
          else entries (k + 1) acc
        in
        if i < String.length text && text.[i] = '[' then entries (i + 1) []
        else [])
      (values_of text "weights")
  in
  emptied @ ints @ weights

let test_rewrites () =
  let count = ref 0 in
  List.iter
    (fun (name, text) ->
      List.iteri
        (fun k mutated ->
          incr count;
          decodes_or_fails (Printf.sprintf "%s rewrite %d" name k) mutated)
        (rewrites text))
    (Lazy.force inputs);
  if !count < 300 then Alcotest.failf "only %d rewrites" !count

(* A cut at any offset, or up to three bytes overwritten with any byte. *)
let test_cuts_and_flips =
  let gen =
    QCheck2.Gen.(
      let* k = int_bound 1_000_000 in
      let* cut = bool in
      if cut then map (fun at -> (k, `Cut at)) (int_bound 1_000_000)
      else
        map
          (fun flips -> (k, `Flip flips))
          (list_size (int_range 1 3) (pair (int_bound 1_000_000) (int_bound 255))))
  in
  Testutil.qtest ~count:400 "cut or flipped inputs decode or fail typed" gen
    (fun (k, mutation) ->
      let all = Lazy.force inputs in
      let name, text = List.nth all (k mod List.length all) in
      let len = String.length text in
      let mutated =
        match mutation with
        | `Cut at -> String.sub text 0 (at mod (len + 1))
        | `Flip flips ->
            let b = Bytes.of_string text in
            List.iter (fun (at, c) -> Bytes.set b (at mod len) (Char.chr c)) flips;
            Bytes.to_string b
      in
      decodes_or_fails name mutated;
      true)

let suite =
  [
    Alcotest.test_case "field rewrites decode or fail typed" `Quick
      test_rewrites;
    test_cuts_and_flips;
  ]
