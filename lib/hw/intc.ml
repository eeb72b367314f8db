type line = int

type stats = {
  raised : int;
  delivered : int;
  coalesced : int;
  masked_raises : int;
}

type t = {
  pending : bool array;
  masked : bool array;
  mutable handler : (line -> unit) option;
  mutable raised : int;
  mutable delivered : int;
  mutable coalesced : int;
  mutable masked_raises : int;
}

let create ~lines =
  if lines <= 0 then invalid_arg "Intc.create: lines must be positive";
  {
    pending = Array.make lines false;
    masked = Array.make lines false;
    handler = None;
    raised = 0;
    delivered = 0;
    coalesced = 0;
    masked_raises = 0;
  }

let lines t = Array.length t.pending

let check_line t line =
  if line < 0 || line >= Array.length t.pending then
    invalid_arg (Printf.sprintf "Intc: line %d out of range" line)

let set_handler t handler = t.handler <- Some handler

let deliver t line =
  match t.handler with
  | None -> ()
  | Some handler ->
      t.delivered <- t.delivered + 1;
      handler line

let raise_line t line =
  check_line t line;
  t.raised <- t.raised + 1;
  if t.pending.(line) then t.coalesced <- t.coalesced + 1
  else begin
    t.pending.(line) <- true;
    if t.masked.(line) then t.masked_raises <- t.masked_raises + 1
    else deliver t line
  end

let ack t line =
  check_line t line;
  t.pending.(line) <- false

let mask t line =
  check_line t line;
  t.masked.(line) <- true

let unmask t line =
  check_line t line;
  if t.masked.(line) then begin
    t.masked.(line) <- false;
    if t.pending.(line) then deliver t line
  end

let is_pending t line =
  check_line t line;
  t.pending.(line)

let is_masked t line =
  check_line t line;
  t.masked.(line)

let stats t =
  {
    raised = t.raised;
    delivered = t.delivered;
    coalesced = t.coalesced;
    masked_raises = t.masked_raises;
  }
