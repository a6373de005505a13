open Spec

let duplicates names =
  let seen = Hashtbl.create (List.length names) in
  List.filter
    (fun n ->
      if Hashtbl.mem seen n then true
      else begin
        Hashtbl.replace seen n ();
        false
      end)
    names

let validate_module m =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun n -> err "module %s: duplicate interface %s" m.ms_name n)
    (duplicates (List.map (fun i -> i.if_name) m.ifaces));
  List.iter
    (fun n -> err "module %s: duplicate reconfiguration point %s" m.ms_name n)
    (duplicates (List.map (fun p -> p.rp_label) m.points));
  List.iter
    (fun i ->
      match i.role with
      | Client ->
        if i.returns <> [] then
          err "module %s: client interface %s cannot declare 'returns'"
            m.ms_name i.if_name
      | Server ->
        if i.accepts <> [] then
          err "module %s: server interface %s cannot declare 'accepts'"
            m.ms_name i.if_name
      | Use | Define ->
        if i.accepts <> [] || i.returns <> [] then
          err "module %s: %s interface %s carries messages one way only"
            m.ms_name (role_name i.role) i.if_name)
    m.ifaces;
  !errors

let validate_app config app =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  (* indexed lookups: binding resolution must stay linear in the number
     of binds, not O(instances x binds) — at 100k instances the scans
     would dominate the whole deploy *)
  let inst_index = index_instances app in
  let mod_index = index_modules config in
  List.iter
    (fun n -> err "application %s: duplicate instance %s" app.app_name n)
    (duplicates (List.map (fun i -> i.inst_name) app.instances));
  List.iter
    (fun inst ->
      if Hashtbl.find_opt mod_index inst.inst_module = None then
        err "application %s: instance %s references unknown module %s"
          app.app_name inst.inst_name inst.inst_module)
    app.instances;
  let resolve (inst_name, if_name) =
    match Hashtbl.find_opt inst_index inst_name with
    | None ->
      err "application %s: binding references unknown instance %s" app.app_name
        inst_name;
      None
    | Some inst -> (
      match Hashtbl.find_opt mod_index inst.inst_module with
      | None -> None
      | Some m -> (
        match find_iface m if_name with
        | None ->
          err "application %s: module %s has no interface %s" app.app_name
            m.ms_name if_name;
          None
        | Some iface -> Some iface))
  in
  (* a bind's name is rendered only for an error on it *)
  let pp_bind ppf b =
    Format.fprintf ppf "bind \"%s %s\" \"%s %s\"" (fst b.b_from) (snd b.b_from)
      (fst b.b_to) (snd b.b_to)
  in
  List.iter
    (fun b ->
      match resolve b.b_from, resolve b.b_to with
      | Some from_if, Some to_if -> (
        match from_if.role, to_if.role with
        | Define, Use ->
          if from_if.pattern <> to_if.pattern then
            err "%a: pattern mismatch (%s vs %s)" pp_bind b
              (String.concat "," (List.map msg_ty_name from_if.pattern))
              (String.concat "," (List.map msg_ty_name to_if.pattern))
        | Client, Server ->
          if from_if.pattern <> to_if.pattern then
            err "%a: request pattern mismatch" pp_bind b;
          if from_if.accepts <> to_if.returns then
            err "%a: reply pattern mismatch" pp_bind b
        | Server, Client ->
          err "%a: write the binding client-to-server" pp_bind b
        | Use, _ -> err "%a: interface %s cannot send" pp_bind b from_if.if_name
        | _, Define -> err "%a: interface %s cannot receive" pp_bind b to_if.if_name
        | _, _ ->
          err "%a: incompatible roles %s -> %s" pp_bind b (role_name from_if.role)
            (role_name to_if.role))
      | _ -> ())
    app.binds;
  match List.rev !errors with [] -> Ok () | es -> Error es

type checked = config

let validate config =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun n -> err "duplicate module %s" n)
    (duplicates (List.map (fun m -> m.ms_name) config.modules));
  List.iter
    (fun n -> err "duplicate application %s" n)
    (duplicates (List.map (fun a -> a.app_name) config.apps));
  List.iter (fun m -> errors := validate_module m @ !errors) config.modules;
  List.iter
    (fun a ->
      match validate_app config a with
      | Ok () -> ()
      | Error es -> errors := es @ !errors)
    config.apps;
  match List.rev !errors with [] -> Ok config | es -> Error es

(* -------------------------------------------------------------------- *)
(* Cross-checking a module's program against its specification.          *)

let interface_literals (program : Dr_lang.Ast.program) =
  (* (interface, operation) pairs from mh_read/mh_write/mh_query
     occurrences whose interface argument is a string literal. *)
  let acc = ref [] in
  let rec expr (e : Dr_lang.Ast.expr) =
    match e with
    | Builtin ("mh_query", [ Str iface ]) -> acc := (iface, `Query) :: !acc
    | Int _ | Float _ | Bool _ | Str _ | Null | Var _ -> ()
    | Index (a, i) -> expr a; expr i
    | Addr (_, i) -> expr i
    | Unop (_, e) -> expr e
    | Binop (_, a, b) -> expr a; expr b
    | Call (_, args) | Builtin (_, args) -> List.iter expr args
  in
  List.iter
    (fun (p : Dr_lang.Ast.proc) ->
      Dr_lang.Ast.iter_stmts
        (fun s ->
          match s.kind with
          | BuiltinS ("mh_read", Aexpr (Str iface) :: _) ->
            acc := (iface, `Read) :: !acc
          | BuiltinS ("mh_write", Aexpr (Str iface) :: _) ->
            acc := (iface, `Write) :: !acc
          | Decl (_, _, Some e) -> expr e
          | Assign (_, e) -> expr e
          | If (c, _, _) | While (c, _) -> expr c
          | CallS (_, args) -> List.iter expr args
          | Return (Some e) -> expr e
          | Sleep e -> expr e
          | Print es -> List.iter expr es
          | BuiltinS (_, args) ->
            List.iter
              (function Dr_lang.Ast.Aexpr e -> expr e | Alv _ -> ())
              args
          | Decl (_, _, None) | Return None | Goto _ | Skip -> ())
        p.body)
    program.procs;
  List.rev !acc

let check_program_against_spec (spec : module_spec)
    (program : Dr_lang.Ast.program) =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  (* reconfiguration points: label must exist somewhere; declared state
     variables must exist in the procedure containing the label *)
  List.iter
    (fun point ->
      let holder =
        List.find_opt
          (fun (p : Dr_lang.Ast.proc) ->
            List.mem point.rp_label (Dr_lang.Ast.labels_in_block p.body))
          program.procs
      in
      match holder with
      | None ->
        err "module %s: reconfiguration point %s has no matching label"
          spec.ms_name point.rp_label
      | Some proc -> (
        match point.rp_state with
        | None -> ()
        | Some vars ->
          let known =
            List.map (fun (p : Dr_lang.Ast.param) -> p.pname) proc.params
            @ List.map fst (Dr_lang.Typecheck.locals_of_proc proc)
            @ List.map (fun (g : Dr_lang.Ast.global) -> g.gname) program.globals
          in
          List.iter
            (fun v ->
              if not (List.mem v known) then
                err
                  "module %s: point %s lists state variable %s, unknown in \
                   procedure %s"
                  spec.ms_name point.rp_label v proc.proc_name)
            vars))
    spec.points;
  (* interfaces used by the program must be declared with a usable
     direction *)
  List.iter
    (fun (iface, op) ->
      match find_iface spec iface with
      | None ->
        err "module %s: program uses undeclared interface %s" spec.ms_name iface
      | Some i -> (
        match op with
        | `Write ->
          if not (can_send i.role) then
            err "module %s: program writes on %s interface %s" spec.ms_name
              (role_name i.role) iface
        | `Read | `Query ->
          if not (can_receive i.role) then
            err "module %s: program reads from %s interface %s" spec.ms_name
              (role_name i.role) iface))
    (interface_literals program);
  match List.rev !errors with [] -> Ok () | es -> Error es
