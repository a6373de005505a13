open Ast

type error = { message : string; where : string; line : int }

let pp_error ppf e =
  Fmt.pf ppf "%s (in %s, line %d)" e.message e.where e.line

(* Inference result: [Null] has every array/pointer type. *)
type inferred = Known of ty | Nullish

let locals_of_proc proc =
  let acc = ref [] in
  iter_stmts
    (fun s -> match s.kind with Decl (name, ty, _) -> acc := (name, ty) :: !acc | _ -> ())
    proc.body;
  List.rev !acc

let default_value_expr = function
  | Tint -> Int 0
  | Tfloat -> Float 0.0
  | Tbool -> Bool false
  | Tstr -> Str ""
  | Tarr _ | Tptr _ -> Null

let is_scalar = function
  | Tint | Tfloat | Tbool | Tstr -> true
  | Tarr _ | Tptr _ -> false

type ctx = {
  program : program;
  proc : proc;
  locals : (string * ty) list;
  labels : string list;
  mutable errors : error list;
}

let err ctx ?(line = 0) fmt =
  Format.kasprintf
    (fun message ->
      ctx.errors <- { message; where = ctx.proc.proc_name; line } :: ctx.errors)
    fmt

let lookup_var ctx name =
  match List.assoc_opt name ctx.locals with
  | Some ty -> Some ty
  | None -> (
    match List.find_opt (fun p -> String.equal p.pname name) ctx.proc.params with
    | Some p -> Some p.pty
    | None -> (
      match find_global ctx.program name with
      | Some g -> Some g.gty
      | None -> None))

let expr_builtin_result ctx name args_tys =
  let bad expected =
    err ctx "builtin %s: expected %s, got (%s)" name expected
      (String.concat ", "
         (List.map (function Known t -> Pretty.ty_to_string t | Nullish -> "null") args_tys));
    None
  in
  match name, args_tys with
  | "mh_query", [ Known Tstr ] -> Some Tbool
  | "mh_query", _ -> bad "(string)"
  | "mh_getstatus", [] -> Some Tstr
  | "mh_getstatus", _ -> bad "()"
  | "len", [ Known (Tarr _) ] -> Some Tint
  | "len", _ -> bad "(array)"
  | "float", [ Known Tint ] -> Some Tfloat
  | "float", _ -> bad "(int)"
  | "int", [ Known Tfloat ] -> Some Tint
  | "int", _ -> bad "(float)"
  | "str", [ Known (Tint | Tfloat | Tbool | Tstr) ] -> Some Tstr
  | "str", _ -> bad "(scalar)"
  | "alloc_int", [ Known Tint ] -> Some (Tarr Tint)
  | "alloc_float", [ Known Tint ] -> Some (Tarr Tfloat)
  | "alloc_bool", [ Known Tint ] -> Some (Tarr Tbool)
  | "alloc_str", [ Known Tint ] -> Some (Tarr Tstr)
  | ("alloc_int" | "alloc_float" | "alloc_bool" | "alloc_str"), _ -> bad "(int)"
  | "now", [] -> Some Tfloat
  | "now", _ -> bad "()"
  | _, _ ->
    err ctx "unknown expression builtin %s" name;
    None

let rec infer ctx e : inferred option =
  match e with
  | Int _ -> Some (Known Tint)
  | Float _ -> Some (Known Tfloat)
  | Bool _ -> Some (Known Tbool)
  | Str _ -> Some (Known Tstr)
  | Null -> Some Nullish
  | Var name -> (
    match lookup_var ctx name with
    | Some ty -> Some (Known ty)
    | None ->
      err ctx "unbound variable %s" name;
      None)
  | Index (base, idx) -> (
    check_expr ctx idx Tint;
    match infer ctx base with
    | Some (Known (Tarr t | Tptr t)) -> Some (Known t)
    | Some (Known ty) ->
      err ctx "cannot index a value of type %s" (Pretty.ty_to_string ty);
      None
    | Some Nullish ->
      err ctx "cannot index a null literal";
      None
    | None -> None)
  | Addr (name, idx) -> (
    check_expr ctx idx Tint;
    match lookup_var ctx name with
    | Some (Tarr t | Tptr t) -> Some (Known (Tptr t))
    | Some ty ->
      err ctx "cannot take the address of an element of %s: %s" name
        (Pretty.ty_to_string ty);
      None
    | None ->
      err ctx "unbound variable %s" name;
      None)
  | Unop (Neg, e) -> (
    match infer ctx e with
    | Some (Known (Tint | Tfloat)) as ok -> ok
    | Some _ ->
      err ctx "unary '-' expects int or float";
      None
    | None -> None)
  | Unop (Not, e) ->
    check_expr ctx e Tbool;
    Some (Known Tbool)
  | Binop (op, a, b) -> infer_binop ctx op a b
  | Call (name, args) -> (
    match find_proc ctx.program name with
    | None ->
      err ctx "call to undefined procedure %s" name;
      None
    | Some callee -> (
      check_call_args ctx name callee args;
      match callee.ret with
      | Some ty -> Some (Known ty)
      | None ->
        err ctx "procedure %s returns no value; it cannot be used in an expression"
          name;
        None))
  | Builtin (name, args) -> (
    let arg_tys = List.map (fun a -> infer ctx a) args in
    if List.exists Option.is_none arg_tys then None
    else
      match expr_builtin_result ctx name (List.map Option.get arg_tys) with
      | Some ty -> Some (Known ty)
      | None -> None)

and infer_binop ctx op a b =
  let known t = Some (Known t) in
  match op with
  | Add | Sub | Mul | Div -> (
    match infer ctx a, infer ctx b with
    | Some (Known Tint), Some (Known Tint) -> known Tint
    | Some (Known Tfloat), Some (Known Tfloat) -> known Tfloat
    (* pointer arithmetic: ptr + int *)
    | Some (Known (Tptr t)), Some (Known Tint) when op = Add || op = Sub ->
      known (Tptr t)
    | Some _, Some _ ->
      err ctx "arithmetic operands must both be int or both float";
      None
    | _, _ -> None)
  | Mod -> (
    match infer ctx a, infer ctx b with
    | Some (Known Tint), Some (Known Tint) -> known Tint
    | Some _, Some _ ->
      err ctx "'%%' expects int operands";
      None
    | _, _ -> None)
  | Eq | Ne -> (
    match infer ctx a, infer ctx b with
    | Some (Known ta), Some (Known tb) when equal_ty ta tb -> known Tbool
    | Some Nullish, Some (Known (Tarr _ | Tptr _))
    | Some (Known (Tarr _ | Tptr _)), Some Nullish
    | Some Nullish, Some Nullish ->
      known Tbool
    | Some _, Some _ ->
      err ctx "'==' / '!=' operands must have the same type";
      None
    | _, _ -> None)
  | Lt | Le | Gt | Ge -> (
    match infer ctx a, infer ctx b with
    | Some (Known Tint), Some (Known Tint)
    | Some (Known Tfloat), Some (Known Tfloat)
    | Some (Known Tstr), Some (Known Tstr) ->
      known Tbool
    | Some _, Some _ ->
      err ctx "ordering comparisons expect int, float or string operands";
      None
    | _, _ -> None)
  | And | Or ->
    check_expr ctx a Tbool;
    check_expr ctx b Tbool;
    known Tbool
  | Cat -> (
    match infer ctx a, infer ctx b with
    | Some (Known Tstr), Some (Known Tstr) -> known Tstr
    | Some _, Some _ ->
      err ctx "'^' expects string operands";
      None
    | _, _ -> None)

and check_expr ctx e expected =
  match infer ctx e with
  | None -> ()
  | Some Nullish ->
    if not (match expected with Tarr _ | Tptr _ -> true | _ -> false) then
      err ctx "null where a value of type %s was expected"
        (Pretty.ty_to_string expected)
  | Some (Known actual) ->
    if not (equal_ty actual expected) then
      err ctx "expected %s but found %s" (Pretty.ty_to_string expected)
        (Pretty.ty_to_string actual)

and check_call_args ctx name callee args =
  let n_params = List.length callee.params and n_args = List.length args in
  if n_params <> n_args then
    err ctx "%s expects %d argument(s), got %d" name n_params n_args
  else
    List.iter2
      (fun param arg ->
        if param.pref then begin
          match arg with
          | Var var_name -> (
            match lookup_var ctx var_name with
            | Some ty when equal_ty ty param.pty -> ()
            | Some ty ->
              err ctx
                "%s: ref parameter %s has type %s but variable %s has type %s" name
                param.pname (Pretty.ty_to_string param.pty) var_name
                (Pretty.ty_to_string ty)
            | None -> err ctx "unbound variable %s" var_name)
          | _ ->
            err ctx "%s: argument for ref parameter %s must be a plain variable"
              name param.pname
        end
        else check_expr ctx arg param.pty)
      callee.params args

let check_lvalue ctx lv : ty option =
  match lv with
  | Lvar name -> (
    match lookup_var ctx name with
    | Some ty -> Some ty
    | None ->
      err ctx "unbound variable %s" name;
      None)
  | Lindex (name, idx) -> (
    check_expr ctx idx Tint;
    match lookup_var ctx name with
    | Some (Tarr t | Tptr t) -> Some t
    | Some ty ->
      err ctx "cannot index %s of type %s" name (Pretty.ty_to_string ty);
      None
    | None ->
      err ctx "unbound variable %s" name;
      None)

let check_stmt_builtin ctx line name args =
  let scalar_expr e =
    match infer ctx e with
    | Some (Known t) when is_scalar t -> ()
    | Some Nullish | Some (Known _) ->
      err ctx ~line "%s: messages must be scalar values" name
    | None -> ()
  in
  match name, args with
  | "mh_init", [] -> ()
  | "mh_read", [ Aexpr iface; Alv target ] -> (
    check_expr ctx iface Tstr;
    match check_lvalue ctx target with
    | Some t when is_scalar t -> ()
    | Some _ -> err ctx ~line "mh_read: target must have a scalar type"
    | None -> ())
  | "mh_write", [ Aexpr iface; Aexpr value ] ->
    check_expr ctx iface Tstr;
    scalar_expr value
  | "mh_capture", Aexpr location :: values ->
    check_expr ctx location Tint;
    List.iter
      (function
        | Aexpr e -> ignore (infer ctx e)
        | Alv _ -> err ctx ~line "mh_capture takes expressions")
      values
  | "mh_restore", Alv location :: targets -> (
    (match check_lvalue ctx location with
    | Some Tint | None -> ()
    | Some _ -> err ctx ~line "mh_restore: the location target must be an int");
    List.iter
      (function
        | Alv lv -> ignore (check_lvalue ctx lv)
        | Aexpr _ -> err ctx ~line "mh_restore takes lvalues")
      targets)
  | "mh_encode", [] | "mh_decode", [] -> ()
  | "signal", [ Aexpr (Str handler) ] -> (
    match find_proc ctx.program handler with
    | Some p when p.params = [] && p.ret = None -> ()
    | Some _ ->
      err ctx ~line "signal handler %s must take no parameters and return nothing"
        handler
    | None -> err ctx ~line "signal handler %s is not defined" handler)
  | "signal", [ Aexpr _ ] ->
    err ctx ~line "signal expects a string literal naming the handler procedure"
  | _, _ -> err ctx ~line "malformed builtin statement %s" name

let rec check_stmt ctx (s : stmt) =
  let line = s.line in
  (match s.label with
  | Some label ->
    let count = List.length (List.filter (String.equal label) ctx.labels) in
    if count > 1 then err ctx ~line "duplicate label %s" label
  | None -> ());
  match s.kind with
  | Decl (_, _, init) -> (
    match init, s.kind with
    | Some e, Decl (_, ty, _) -> check_expr ctx e ty
    | _ -> ())
  | Assign (lv, e) -> (
    match check_lvalue ctx lv with
    | Some ty -> check_expr ctx e ty
    | None -> ignore (infer ctx e))
  | If (cond, then_b, else_b) ->
    check_expr ctx cond Tbool;
    List.iter (check_stmt ctx) then_b;
    List.iter (check_stmt ctx) else_b
  | While (cond, body) ->
    check_expr ctx cond Tbool;
    List.iter (check_stmt ctx) body
  | CallS (name, args) -> (
    match find_proc ctx.program name with
    | None -> err ctx ~line "call to undefined procedure %s" name
    | Some callee -> check_call_args ctx name callee args)
  | Return None ->
    if ctx.proc.ret <> None then
      err ctx ~line "%s must return a value" ctx.proc.proc_name
  | Return (Some e) -> (
    match ctx.proc.ret with
    | Some ty -> check_expr ctx e ty
    | None ->
      err ctx ~line "%s returns no value but a return expression was given"
        ctx.proc.proc_name)
  | Goto target ->
    if not (List.mem target ctx.labels) then
      err ctx ~line "goto %s: no such label in %s" target ctx.proc.proc_name
  | Print args -> List.iter (fun e -> ignore (infer ctx e)) args
  | Sleep e -> (
    match infer ctx e with
    | Some (Known (Tint | Tfloat)) | None -> ()
    | Some _ -> err ctx ~line "sleep expects an int or float duration")
  | BuiltinS (name, args) -> check_stmt_builtin ctx line name args
  | Skip -> ()

let check_proc program proc =
  let locals = locals_of_proc proc in
  let labels = labels_in_block proc.body in
  let ctx = { program; proc; locals; labels; errors = [] } in
  (* duplicate parameter / local names *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun p ->
      if Hashtbl.mem seen p.pname then
        err ctx "duplicate parameter %s" p.pname;
      Hashtbl.replace seen p.pname ())
    proc.params;
  List.iter
    (fun (name, _) ->
      if Hashtbl.mem seen name then
        err ctx "duplicate declaration of %s (locals are function-scoped)" name;
      Hashtbl.replace seen name ())
    locals;
  List.iter (check_stmt ctx) proc.body;
  ctx.errors

let check program =
  let errors = ref [] in
  (* duplicate global / procedure names *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun g ->
      if Hashtbl.mem seen g.gname then
        errors :=
          { message = Printf.sprintf "duplicate global %s" g.gname;
            where = "<globals>"; line = g.gline }
          :: !errors;
      Hashtbl.replace seen g.gname ())
    program.globals;
  let seen_procs = Hashtbl.create 16 in
  List.iter
    (fun p ->
      if Hashtbl.mem seen_procs p.proc_name then
        errors :=
          { message = Printf.sprintf "duplicate procedure %s" p.proc_name;
            where = p.proc_name; line = p.proc_line }
          :: !errors;
      Hashtbl.replace seen_procs p.proc_name ())
    program.procs;
  (* global initialisers must be literals or simple expressions over
     literals; they may not call procedures, nor read an interface: they
     run while the instance is being built, before it has a queue. *)
  let rec reads_interface = function
    | Builtin ("mh_query", _) -> true
    | Int _ | Float _ | Bool _ | Str _ | Null | Var _ -> false
    | Index (a, b) | Binop (_, a, b) -> reads_interface a || reads_interface b
    | Addr (_, e) | Unop (_, e) -> reads_interface e
    | Call (_, args) | Builtin (_, args) -> List.exists reads_interface args
  in
  let global_error g what =
    errors :=
      { message = Printf.sprintf "global %s: initialiser may not %s" g.gname what;
        where = "<globals>"; line = g.gline }
      :: !errors
  in
  List.iter
    (fun g ->
      match g.ginit with
      | Some init when calls_in_block [ stmt (Assign (Lvar g.gname, init)) ] <> [] ->
        global_error g "call procedures"
      | Some init when reads_interface init -> global_error g "read an interface"
      | _ -> ())
    program.globals;
  let dummy_proc =
    { proc_name = "<globals>"; params = []; ret = None; body = []; proc_line = 0 }
  in
  List.iter
    (fun g ->
      match g.ginit with
      | Some init ->
        let ctx =
          { program; proc = dummy_proc; locals = []; labels = []; errors = [] }
        in
        check_expr ctx init g.gty;
        errors := ctx.errors @ !errors
      | None -> ())
    program.globals;
  List.iter (fun p -> errors := check_proc program p @ !errors) program.procs;
  match List.rev !errors with [] -> Ok () | es -> Error es
