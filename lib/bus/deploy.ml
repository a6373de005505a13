module Spec = Dr_mil.Spec

let ( let* ) = Result.bind

(* Binding resolution works over pre-built Spec indexes: a
   100k-instance application resolves two endpoints per bind, and a
   linear [find_instance] scan per endpoint would make deployment
   quadratic in the fleet size. *)
let iface_role_indexed mod_index inst_index endpoint =
  let inst_name, if_name = endpoint in
  match Hashtbl.find_opt inst_index inst_name with
  | None -> None
  | Some inst -> (
    match Hashtbl.find_opt mod_index inst.Spec.inst_module with
    | None -> None
    | Some m ->
      Option.map (fun i -> i.Spec.role) (Spec.find_iface m if_name))

let routes_of_bind_indexed mod_index inst_index (bind : Spec.binding_decl) =
  match
    ( iface_role_indexed mod_index inst_index bind.b_from,
      iface_role_indexed mod_index inst_index bind.b_to )
  with
  | Some Spec.Client, Some Spec.Server ->
    [ (bind.b_from, bind.b_to); (bind.b_to, bind.b_from) ]
  | Some _, Some _ | None, _ | _, None -> [ (bind.b_from, bind.b_to) ]

let host_for mod_index (inst : Spec.instance_decl) ~default_host =
  match inst.inst_host with
  | Some h -> h
  | None -> (
    match Hashtbl.find_opt mod_index inst.inst_module with
    | Some { Spec.machine = Some h; _ } -> h
    | Some _ | None -> default_host)

type planned_instance = {
  pi_name : string;
  pi_module : string;
  pi_host : string;
  pi_spec : Spec.module_spec option;
}

(* Only [plan] builds one, and only from a validated configuration, so
   holding a plan proves the configuration validated and every
   instantiated program matched its spec. *)
type plan = {
  instances : planned_instance list;  (* declaration order *)
  routes : (Bus.endpoint * Bus.endpoint) list;  (* binding order *)
}

let plan ~(config : Dr_mil.Validate.checked) ~app ~default_host ~program =
  let config = (config :> Spec.config) in
  let* application =
    match Spec.find_app config app with
    | Some a -> Ok a
    | None -> Error (Printf.sprintf "no application %s in the configuration" app)
  in
  let mod_index = Spec.index_modules config in
  let inst_index = Spec.index_instances application in
  (* Cross-check each instantiated module's program against its spec —
     once per distinct module, not once per instance: a mass deploy
     instantiates the same few modules tens of thousands of times and
     the check walks the whole program AST. The memo also shares one
     [Some spec] among a module's instances. *)
  let checked :
      (string, (Spec.module_spec option, string) result) Hashtbl.t =
    Hashtbl.create 8
  in
  let check_module name =
    match Hashtbl.find_opt checked name with
    | Some r -> r
    | None ->
      let r =
        match Hashtbl.find_opt mod_index name with
        | None -> Ok None  (* caught by validate *)
        | Some m as spec -> (
          match program name with
          | None ->
            Error (Printf.sprintf "module %s has no registered program" name)
          | Some program -> (
            match Dr_mil.Validate.check_program_against_spec m program with
            | Ok () -> Ok spec
            | Error errors -> Error (String.concat "; " errors)))
      in
      Hashtbl.replace checked name r;
      r
  in
  let* instances_rev =
    List.fold_left
      (fun acc (inst : Spec.instance_decl) ->
        let* acc = acc in
        let* pi_spec = check_module inst.inst_module in
        Ok
          ({ pi_name = inst.inst_name;
             pi_module = inst.inst_module;
             pi_host = host_for mod_index inst ~default_host;
             pi_spec }
          :: acc))
      (Ok []) application.instances
  in
  Ok
    { instances = List.rev instances_rev;
      routes =
        List.concat_map
          (routes_of_bind_indexed mod_index inst_index)
          application.binds }

let apply bus plan =
  let* () =
    List.fold_left
      (fun acc pi ->
        let* () = acc in
        Bus.spawn bus ~instance:pi.pi_name ~module_name:pi.pi_module
          ~host:pi.pi_host ?spec:pi.pi_spec ())
      (Ok ()) plan.instances
  in
  List.iter (fun (src, dst) -> Bus.add_route bus ~src ~dst) plan.routes;
  Ok ()

let deploy bus ~config ~app ~default_host =
  let* config =
    Result.map_error (String.concat "; ") (Dr_mil.Validate.validate config)
  in
  let* plan =
    plan ~config ~app ~default_host ~program:(Bus.registered_program bus)
  in
  apply bus plan
