exception Audit_failure of Diagnostic.t list

let () =
  Printexc.register_printer (function
    | Audit_failure diags ->
        let shown = 10 in
        let rec take n = function
          | x :: rest when n > 0 -> x :: take (n - 1) rest
          | _ -> []
        in
        let rendered =
          List.map
            (fun d -> Format.asprintf "  %a" Diagnostic.pp d)
            (take shown diags)
        in
        let more =
          if List.length diags > shown then
            [ Printf.sprintf "  ... and %d more" (List.length diags - shown) ]
          else []
        in
        Some
          (String.concat "\n"
             (Printf.sprintf "Audit_failure: %d finding(s)"
                (List.length diags)
             :: rendered
             @ more))
    | _ -> None)

let default_fail diags = raise (Audit_failure diags)

let install ?(fail = default_fail) () =
  Rthv_core.Hyp_sim.set_audit_hook
    (Some
       (fun config trace ->
         let fold = Trace_oracle.attach (Trace_oracle.of_config config) trace in
         fun () ->
           let diags, _ = Trace_oracle.finish fold in
           if List.exists Diagnostic.is_error diags then begin
             (* Post-mortem first: persist the events that led to the
                violation before the failure continuation (which typically
                raises) unwinds. *)
             let detail =
               List.filter Diagnostic.is_error diags
               |> List.map (fun d -> d.Diagnostic.code)
               |> List.sort_uniq String.compare
               |> String.concat ","
             in
             ignore
               (Rthv_core.Flight_recorder.dump ~reason:"oracle_violation"
                  ~detail ()
                 : string option);
             fail diags
           end))

let uninstall () = Rthv_core.Hyp_sim.set_audit_hook None
let installed = Rthv_core.Hyp_sim.audit_hook_installed
