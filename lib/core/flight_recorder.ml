module Json = Rthv_obs.Json

(* Process-wide switch, normally configured once at startup (before worker
   domains spawn).  The per-run state lives in DLS below, so concurrent
   sweep workers each track their own flight ring. *)
type cfg = { mutable on : bool; mutable cap : int; mutable out_dir : string }

let cfg = { on = false; cap = 4096; out_dir = "." }

let () =
  match Sys.getenv_opt "RTHV_FLIGHT_DIR" with
  | Some dir when dir <> "" ->
      cfg.on <- true;
      cfg.out_dir <- dir
  | Some _ | None -> ()

let enable ?(capacity = 4096) ~dir () =
  if capacity <= 0 then
    invalid_arg "Flight_recorder.enable: capacity must be positive";
  cfg.on <- true;
  cfg.cap <- capacity;
  cfg.out_dir <- dir

let disable () = cfg.on <- false
let enabled () = cfg.on
let capacity () = cfg.cap

type local = {
  mutable trace : Hyp_trace.t option;
  mutable seq : int;
  mutable last : string option;
}

let local_key =
  Domain.DLS.new_key (fun () -> { trace = None; seq = 0; last = None })

let note_run trace =
  if cfg.on then (Domain.DLS.get local_key).trace <- Some trace

let last_dump () = (Domain.DLS.get local_key).last

let sanitize reason =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '_')
    reason

let meta ~reason ~detail trace =
  [ ("schema", Json.String "rthv-flight/1"); ("reason", Json.String reason) ]
  @ (match detail with Some d -> [ ("detail", Json.String d) ] | None -> [])
  @ [
      ("recorded", Json.Int (Hyp_trace.recorded trace));
      ("dropped", Json.Int (Hyp_trace.dropped trace));
      ("capacity", Json.Int (Hyp_trace.capacity trace));
    ]

let ensure_dir dir =
  if dir <> "" && dir <> "." && not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()

let dump ~reason ?detail () =
  if not cfg.on then None
  else
    let local = Domain.DLS.get local_key in
    match local.trace with
    | None -> None
    | Some trace -> (
        let seq = local.seq in
        local.seq <- seq + 1;
        let path =
          Filename.concat cfg.out_dir
            (Printf.sprintf "flight-d%d-%d-%s.jsonl"
               (Domain.self () :> int)
               seq (sanitize reason))
        in
        (* The recorder must never mask the failure that triggered it, so
           file-system trouble degrades to a warning on stderr. *)
        try
          ensure_dir cfg.out_dir;
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              output_string oc
                (Trace_export.jsonl_string
                   ~meta:(meta ~reason ~detail trace)
                   trace));
          local.last <- Some path;
          Some path
        with Sys_error msg ->
          Printf.eprintf "flight recorder: cannot write %s: %s\n%!" path msg;
          None)
