module Spec = Dr_mil.Spec
module Ast = Dr_lang.Ast
module Instrument = Dr_transform.Instrument
module Bus = Dr_bus.Bus

type loaded_module = {
  lm_name : string;
  lm_spec : Spec.module_spec;
  lm_original : Ast.program;
  lm_prepared : Instrument.prepared option;
}

type t = {
  config : Dr_mil.Validate.checked;
  modules : loaded_module list;
}

let ( let* ) = Result.bind

let proc_containing_label (program : Ast.program) label =
  List.find_opt
    (fun (p : Ast.proc) -> List.mem label (Ast.labels_in_block p.body))
    program.procs

let point_specs (spec : Spec.module_spec) program =
  List.fold_left
    (fun acc (point : Spec.point_decl) ->
      let* acc = acc in
      match proc_containing_label program point.rp_label with
      | None ->
        Error
          (Printf.sprintf "module %s: no label %s for reconfiguration point"
             spec.ms_name point.rp_label)
      | Some proc ->
        Ok
          ({ Instrument.pt_proc = proc.proc_name;
             pt_label = point.rp_label;
             pt_vars = point.rp_state }
          :: acc))
    (Ok []) spec.points
  |> Result.map List.rev

let load_module ~optimize options (spec : Spec.module_spec) source =
  let* program =
    try Ok (Dr_lang.Parser.parse_program source) with
    | Dr_lang.Parser.Error (message, line) ->
      Error (Printf.sprintf "%s: parse error at line %d: %s" spec.ms_name line message)
    | Dr_lang.Lexer.Error (message, line) ->
      Error
        (Printf.sprintf "%s: lexical error at line %d: %s" spec.ms_name line message)
  in
  let* () =
    if String.equal program.module_name spec.ms_name then Ok ()
    else
      Error
        (Printf.sprintf "source declares module %s but the specification is %s"
           program.module_name spec.ms_name)
  in
  let* () =
    match Dr_lang.Typecheck.check program with
    | Ok () -> Ok ()
    | Error errors ->
      Error
        (Fmt.str "%s: %a" spec.ms_name
           (Fmt.list ~sep:(Fmt.any "; ") Dr_lang.Typecheck.pp_error)
           errors)
  in
  let* () =
    match Dr_mil.Validate.check_program_against_spec spec program with
    | Ok () -> Ok ()
    | Error errors -> Error (String.concat "; " errors)
  in
  let program =
    if optimize then fst (Dr_opt.Optimize.optimize program) else program
  in
  let* lm_prepared =
    if spec.points = [] then Ok None
    else
      let* points = point_specs spec program in
      let* prepared = Instrument.prepare ?options program ~points in
      Ok (Some prepared)
  in
  Ok { lm_name = spec.ms_name; lm_spec = spec; lm_original = program; lm_prepared }

let load ~mil ~sources ?options ?(optimize = false) () =
  let* config =
    try Ok (Dr_mil.Mil_parser.parse_config mil) with
    | Dr_mil.Mil_parser.Error (message, line) ->
      Error (Printf.sprintf "configuration: parse error at line %d: %s" line message)
    | Dr_lang.Lexer.Error (message, line) ->
      Error
        (Printf.sprintf "configuration: lexical error at line %d: %s" line message)
  in
  let* config =
    Result.map_error (String.concat "; ") (Dr_mil.Validate.validate config)
  in
  let* modules =
    List.fold_left
      (fun acc (spec : Spec.module_spec) ->
        let* acc = acc in
        match List.assoc_opt spec.ms_name sources with
        | None ->
          Error (Printf.sprintf "no source provided for module %s" spec.ms_name)
        | Some source ->
          let* m = load_module ~optimize options spec source in
          Ok (m :: acc))
      (Ok []) (config :> Spec.config).modules
  in
  Ok { config; modules = List.rev modules }

let find_module t name =
  List.find_opt (fun m -> String.equal m.lm_name name) t.modules

let deployed_program m =
  match m.lm_prepared with
  | Some prepared -> prepared.prepared_program
  | None -> m.lm_original

let instrumented_source t name =
  Option.map
    (fun m -> Dr_lang.Pretty.program_to_string (deployed_program m))
    (find_module t name)

let start t ~app ~hosts ?params ?default_host () =
  let* default_host =
    match default_host, hosts with
    | Some h, _ -> Ok h
    | None, first :: _ -> Ok first.Bus.host_name
    | None, [] -> Error "no hosts given"
  in
  let bus = Bus.create ?params ~hosts () in
  let* () =
    List.fold_left
      (fun acc m ->
        let* () = acc in
        Bus.register_program bus (deployed_program m))
      (Ok ()) t.modules
  in
  let* plan =
    Dr_bus.Deploy.plan ~config:t.config ~app ~default_host
      ~program:(Bus.registered_program bus)
  in
  let* () = Dr_bus.Deploy.apply bus plan in
  Ok bus

let migrate ?precopy ?deadline ?retry bus ~instance ~new_instance ~new_host =
  match (deadline, retry) with
  | None, None ->
    Dr_reconfig.Script.run_sync bus ~watch:instance (fun ~on_done ->
        Dr_reconfig.Script.migrate bus ?precopy ~instance ~new_instance
          ~new_host ~on_done ())
  | _ ->
    (* a migration is a replace onto a new host; with a deadline or a
       retry policy the script handles the non-complying target itself,
       so no fail-fast watch (see [replace]) *)
    Dr_reconfig.Script.run_sync bus (fun ~on_done ->
        Dr_reconfig.Script.replace bus ?precopy ~instance ~new_instance
          ~new_host ?deadline ?retry ~on_done ())

let replace bus ?precopy ~instance ~new_instance ?new_module ?new_host
    ?deadline ?retry () =
  (* with a script-level deadline or retry policy, the script itself
     handles a non-complying (or crashed) target by rolling back /
     re-attempting — the fail-fast watch would cut it short *)
  let watch =
    match (deadline, retry) with
    | None, None -> Some instance
    | _ -> None
  in
  Dr_reconfig.Script.run_sync bus ?watch (fun ~on_done ->
      Dr_reconfig.Script.replace bus ?precopy ~instance ~new_instance
        ?new_module ?new_host ?deadline ?retry ~on_done ())

let replicate bus ~instance ~replica_instance ?replica_host () =
  Dr_reconfig.Script.run_sync bus ~watch:instance (fun ~on_done ->
      Dr_reconfig.Script.replicate bus ~instance ~replica_instance ?replica_host
        ~on_done ())
