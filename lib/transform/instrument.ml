open Dr_lang
module Rg = Dr_analysis.Reconfig_graph
module Liveness = Dr_analysis.Liveness

type point_spec = {
  pt_proc : string;
  pt_label : string;
  pt_vars : string list option;
}

type options = { use_liveness : bool; substitute_dummy_args : bool }

let default_options = { use_liveness = false; substitute_dummy_args = true }

type prepared = {
  prepared_program : Ast.program;
  graph : Rg.t;
  capture_sets : (string * string list) list;
}

let flag_reconfig = "mh_reconfig"
let flag_capturestack = "mh_capturestack"
let flag_restoring = "mh_restoring"
let flag_location = "mh_location"
let handler_proc_name = "mh_catchreconfig"

let flag_globals = [ flag_reconfig; flag_capturestack; flag_restoring; flag_location ]

let generated_label i = Printf.sprintf "_L%d" i
let point_label j = Printf.sprintf "_P%d" j

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Reserved-name hygiene: the input program may not already use the    *)
(* names the transform injects.                                        *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let check_reserved (program : Ast.program) =
  let reserved name =
    List.mem name flag_globals
    || String.equal name handler_proc_name
    || starts_with "_L" name
    || starts_with "_P" name
  in
  let bad = ref None in
  let note kind name = if !bad = None && reserved name then bad := Some (kind, name) in
  List.iter (fun (g : Ast.global) -> note "global" g.gname) program.globals;
  List.iter
    (fun (p : Ast.proc) ->
      note "procedure" p.proc_name;
      List.iter (fun (prm : Ast.param) -> note "parameter" prm.pname) p.params;
      Ast.iter_stmts
        (fun s ->
          Option.iter (note "label") s.label;
          match s.kind with
          | Decl (name, _, _) -> note "local" name
          | _ -> ())
        p.body)
    program.procs;
  match !bad with
  | None -> Ok ()
  | Some (kind, name) ->
    Error
      (Printf.sprintf
         "%s %s collides with a name reserved by the transformation" kind name)

(* ------------------------------------------------------------------ *)
(* α-renaming of shadowed globals.                                     *)
(*                                                                     *)
(* [main]'s capture list is params @ locals @ globals: a local of main *)
(* that shadows a module global appears twice in the list, and both    *)
(* occurrences resolve to the local slot — so the global's value is    *)
(* captured as a duplicate of the local and silently lost across a     *)
(* reconfiguration. Shadowing is frame-entry-wide in MiniProc (locals  *)
(* are function-scoped and the resolver prefers the frame slot for the *)
(* whole body), so every occurrence of the name in main's body denotes *)
(* the local: renaming the local throughout the body is semantics-     *)
(* preserving. Programs without shadowing pass through untouched.      *)

let rec rename_expr m (e : Ast.expr) : Ast.expr =
  let var n = Option.value ~default:n (Hashtbl.find_opt m n) in
  match e with
  | Int _ | Float _ | Bool _ | Str _ | Null -> e
  | Var n -> Var (var n)
  | Index (a, i) -> Index (rename_expr m a, rename_expr m i)
  | Addr (n, i) -> Addr (var n, rename_expr m i)
  | Unop (o, e) -> Unop (o, rename_expr m e)
  | Binop (o, a, b) -> Binop (o, rename_expr m a, rename_expr m b)
  | Call (f, args) -> Call (f, List.map (rename_expr m) args)
  | Builtin (f, args) -> Builtin (f, List.map (rename_expr m) args)

let rename_lvalue m (lv : Ast.lvalue) : Ast.lvalue =
  let var n = Option.value ~default:n (Hashtbl.find_opt m n) in
  match lv with
  | Lvar n -> Lvar (var n)
  | Lindex (n, i) -> Lindex (var n, rename_expr m i)

let rename_arg m (a : Ast.arg) : Ast.arg =
  match a with
  | Aexpr e -> Aexpr (rename_expr m e)
  | Alv lv -> Alv (rename_lvalue m lv)

let rec rename_stmt m (s : Ast.stmt) : Ast.stmt =
  let var n = Option.value ~default:n (Hashtbl.find_opt m n) in
  let kind : Ast.stmt_kind =
    match s.kind with
    | Decl (n, ty, init) -> Decl (var n, ty, Option.map (rename_expr m) init)
    | Assign (lv, e) -> Assign (rename_lvalue m lv, rename_expr m e)
    | If (c, t, e) ->
      If (rename_expr m c, List.map (rename_stmt m) t, List.map (rename_stmt m) e)
    | While (c, b) -> While (rename_expr m c, List.map (rename_stmt m) b)
    | CallS (f, args) -> CallS (f, List.map (rename_expr m) args)
    | Return e -> Return (Option.map (rename_expr m) e)
    | (Goto _ | Skip) as k -> k
    | Print es -> Print (List.map (rename_expr m) es)
    | Sleep e -> Sleep (rename_expr m e)
    | BuiltinS (f, args) -> BuiltinS (f, List.map (rename_arg m) args)
  in
  { s with kind }

let rename_shadowed_globals (program : Ast.program) =
  let declared = Hashtbl.create 64 in
  let note n = Hashtbl.replace declared n () in
  List.iter (fun (g : Ast.global) -> note g.gname) program.globals;
  List.iter
    (fun (p : Ast.proc) ->
      note p.proc_name;
      List.iter (fun (prm : Ast.param) -> note prm.pname) p.params;
      Ast.iter_stmts
        (fun s ->
          Option.iter note s.label;
          match s.kind with Decl (n, _, _) -> note n | _ -> ())
        p.body)
    program.procs;
  let fresh base =
    let rec go k =
      let candidate = Printf.sprintf "%s_l%d" base k in
      if Hashtbl.mem declared candidate then go (k + 1)
      else begin
        note candidate;
        candidate
      end
    in
    go 0
  in
  let rename_proc (p : Ast.proc) =
    let is_global n = Option.is_some (Ast.find_global program n) in
    let colliding =
      List.sort_uniq String.compare
        (List.filter_map
           (fun (prm : Ast.param) ->
             if is_global prm.pname then Some prm.pname else None)
           p.params
        @ List.filter is_global (List.map fst (Typecheck.locals_of_proc p)))
    in
    if colliding = [] then p
    else begin
      let m = Hashtbl.create 4 in
      List.iter (fun n -> Hashtbl.replace m n (fresh n)) colliding;
      { p with
        params =
          List.map
            (fun (prm : Ast.param) ->
              match Hashtbl.find_opt m prm.pname with
              | Some n -> { prm with pname = n }
              | None -> prm)
            p.params;
        body = List.map (rename_stmt m) p.body }
    end
  in
  { program with
    procs =
      List.map
        (fun (p : Ast.proc) ->
          if String.equal p.proc_name "main" then rename_proc p else p)
        program.procs }

(* ------------------------------------------------------------------ *)
(* Capture sets.                                                       *)

(* Parameters then locals, in declaration order; for main, also the
   module's (user) globals. *)
let base_capture_list (program : Ast.program) (proc : Ast.proc) =
  let params = List.map (fun (p : Ast.param) -> p.pname) proc.params in
  let locals = List.map fst (Typecheck.locals_of_proc proc) in
  let globals =
    if String.equal proc.proc_name "main" then
      List.map (fun (g : Ast.global) -> g.gname) program.globals
    else []
  in
  params @ locals @ globals

let trim_by_liveness program (proc : Ast.proc) (graph : Rg.t) base =
  let info = Liveness.analyze ~program proc in
  let needed = ref [] in
  let add vars = needed := vars @ !needed in
  List.iter
    (fun edge ->
      match edge with
      | Rg.Point_edge { rlabel; _ } ->
        Option.iter add (Liveness.live_at_label info rlabel)
      | Rg.Call_edge { ordinal; _ } ->
        Option.iter add (Liveness.live_after_call info ordinal))
    (Rg.edges_from graph proc.proc_name);
  let needed = List.sort_uniq String.compare !needed in
  let ref_params =
    List.filter_map
      (fun (p : Ast.param) -> if p.pref then Some p.pname else None)
      proc.params
  in
  let globals = List.map (fun (g : Ast.global) -> g.gname) program.globals in
  List.filter
    (fun v ->
      List.mem v needed || List.mem v ref_params || List.mem v globals)
    base

let validate_point_vars (points : point_spec list) capture_table =
  (* Defense in depth: {!Rg.build} already rejects a point naming an
     unknown procedure, but silently skipping here would let a mistyped
     name validate its declared state variables against nothing — and
     capture an empty set downstream. Fail loudly. *)
  let no_capture_set pt_proc pt_label =
    Error
      (Printf.sprintf
         "reconfiguration point %s.%s names procedure %s, which has no \
          capture set (unknown procedure, or not on any path to a \
          reconfiguration point)"
         pt_proc pt_label pt_proc)
  in
  let rec check = function
    | [] -> Ok ()
    | { pt_proc; pt_label; pt_vars = Some vars } :: rest -> (
      match Hashtbl.find_opt capture_table pt_proc with
      | None -> no_capture_set pt_proc pt_label
      | Some captured ->
        let missing = List.filter (fun v -> not (List.mem v captured)) vars in
        if missing = [] then check rest
        else
          Error
            (Printf.sprintf
               "reconfiguration point %s.%s lists state variable(s) %s not \
                present in the capture set of %s"
               pt_proc pt_label (String.concat ", " missing) pt_proc))
    | { pt_proc; pt_label; pt_vars = None } :: rest ->
      if Hashtbl.mem capture_table pt_proc then check rest
      else no_capture_set pt_proc pt_label
  in
  check points

(* ------------------------------------------------------------------ *)
(* Generated statements.                                               *)

let assign_flag name value = Ast.stmt (Ast.Assign (Lvar name, Bool value))

let capture_stmt index vars =
  Ast.stmt
    (Ast.BuiltinS
       ( "mh_capture",
         Ast.Aexpr (Int index) :: List.map (fun v -> Ast.Aexpr (Ast.Var v)) vars ))

let restore_stmt vars =
  Ast.stmt
    (Ast.BuiltinS
       ( "mh_restore",
         Ast.Alv (Lvar flag_location) :: List.map (fun v -> Ast.Alv (Ast.Lvar v)) vars ))

let return_stmt (proc : Ast.proc) =
  match proc.ret with
  | None -> Ast.stmt (Ast.Return None)
  | Some ty -> Ast.stmt (Ast.Return (Some (Typecheck.default_value_expr ty)))

let encode_stmt = Ast.stmt (Ast.BuiltinS ("mh_encode", []))
let decode_stmt = Ast.stmt (Ast.BuiltinS ("mh_decode", []))

let signal_stmt =
  Ast.stmt (Ast.BuiltinS ("signal", [ Ast.Aexpr (Str handler_proc_name) ]))

(* Capture block for a call edge (Fig. 7, second form):
     if (mh_capturestack) { mh_capture(i, vars); [mh_encode();] return d; } *)
let call_capture_block ~in_main proc index vars =
  let body =
    [ capture_stmt index vars ]
    @ (if in_main then [ encode_stmt ] else [])
    @ [ return_stmt proc ]
  in
  Ast.stmt (Ast.If (Var flag_capturestack, body, []))

(* Capture block for a reconfiguration point (Fig. 7, first form):
     if (mh_reconfig) { mh_reconfig = false; mh_capturestack = true;
                        mh_capture(j, vars); [mh_encode();] return d; } *)
let point_capture_block ~in_main proc index vars =
  let body =
    [ assign_flag flag_reconfig false;
      assign_flag flag_capturestack true;
      capture_stmt index vars ]
    @ (if in_main then [ encode_stmt ] else [])
    @ [ return_stmt proc ]
  in
  Ast.stmt (Ast.If (Var flag_reconfig, body, []))

(* ------------------------------------------------------------------ *)
(* Dummy-argument substitution (paper §3): when the restore block        *)
(* re-invokes an interrupted call, argument expressions whose            *)
(* re-evaluation could fault (or re-enter a procedure) are replaced by   *)
(* type-appropriate dummies. The restored callee overwrites its          *)
(* parameters immediately, so dummy values are never observed.           *)

let rec expr_is_safe (e : Ast.expr) =
  match e with
  | Int _ | Float _ | Bool _ | Str _ | Null | Var _ -> true
  | Index _ | Addr _ | Call _ -> false
  | Unop (_, e) -> expr_is_safe e
  | Binop ((Div | Mod), _, _) -> false
  | Binop (_, a, b) -> expr_is_safe a && expr_is_safe b
  | Builtin (name, args) ->
    (* allocation re-executed during restore would leak and diverge from
       the captured heap; conversions and queries are harmless *)
    (match name with
    | "float" | "int" | "str" | "len" | "now" -> List.for_all expr_is_safe args
    | _ -> false)

let dummy_args ~enabled (callee : Ast.proc) args =
  if not enabled then args
  else
    List.map2
      (fun (param : Ast.param) arg ->
        if param.pref then arg
        else if expr_is_safe arg then arg
        else Typecheck.default_value_expr param.pty)
      callee.params args

(* ------------------------------------------------------------------ *)
(* Per-procedure rewriting.                                            *)

type call_edge_info = {
  cei_index : int;
  cei_callee : string;
  cei_args : Ast.expr list;
}

let rewrite_proc ~options (program : Ast.program) (graph : Rg.t) capture_vars
    (proc : Ast.proc) =
  let in_main = String.equal proc.proc_name "main" in
  let edges = Rg.edges_from graph proc.proc_name in
  let call_edge_by_ordinal ordinal =
    List.find_map
      (function
        | Rg.Call_edge { index; ordinal = o; _ } when o = ordinal -> Some index
        | Rg.Call_edge _ | Rg.Point_edge _ -> None)
      edges
  in
  let point_edge_by_label label =
    List.find_map
      (function
        | Rg.Point_edge { index; rlabel; _ } when String.equal rlabel label ->
          Some index
        | Rg.Point_edge _ | Rg.Call_edge _ -> None)
      edges
  in
  let collected_calls = ref [] in
  let ordinal = ref 0 in
  let rec rewrite_block stmts = List.concat_map rewrite_stmt stmts
  and rewrite_stmt (s : Ast.stmt) =
    let point_pre =
      match s.label with
      | Some label -> (
        match point_edge_by_label label with
        (* The _Pj label marks this block as a reconfiguration-point
           gate: the resolver wraps the gate's conditional jump so the
           runtime can park observation hooks (pre-copy's freeze)
           exactly at point granularity. Labels are lowering metadata —
           the emitted instruction stream is unchanged. *)
        | Some j ->
          [ { (point_capture_block ~in_main proc j capture_vars) with
              label = Some (point_label j) } ]
        | None -> [])
      | None -> []
    in
    match s.kind with
    | Ast.CallS (callee, args) ->
      let this_ordinal = !ordinal in
      incr ordinal;
      (match call_edge_by_ordinal this_ordinal with
      | Some i ->
        collected_calls :=
          { cei_index = i; cei_callee = callee; cei_args = args }
          :: !collected_calls;
        (* The label _Li sits ON the capture block, not after it: the
           restore code's [goto _Li] must land where a later capture can
           still fire — otherwise a restored process could never be
           reconfigured a second time at this frame. With the flag clear
           the block falls through, so normal resumption is unaffected. *)
        point_pre
        @ [ s;
            { (call_capture_block ~in_main proc i capture_vars) with
              label = Some (generated_label i) } ]
      | None -> point_pre @ [ s ])
    | Ast.If (cond, then_b, else_b) ->
      point_pre @ [ { s with kind = Ast.If (cond, rewrite_block then_b, rewrite_block else_b) } ]
    | Ast.While (cond, body) ->
      point_pre @ [ { s with kind = Ast.While (cond, rewrite_block body) } ]
    | Ast.Decl _ | Ast.Assign _ | Ast.Return _ | Ast.Goto _ | Ast.Print _
    | Ast.Sleep _ | Ast.BuiltinS _ | Ast.Skip ->
      point_pre @ [ s ]
  in
  let rewritten_body = rewrite_block proc.body in
  (* Restore block (Fig. 8). Edge dispatch in ascending index order. *)
  let call_infos =
    List.sort (fun a b -> compare a.cei_index b.cei_index) !collected_calls
  in
  let call_restore info =
    let callee =
      match Ast.find_proc program info.cei_callee with
      | Some c -> c
      | None -> assert false (* typechecked *)
    in
    Ast.stmt
      (Ast.If
         ( Binop (Eq, Var flag_location, Int info.cei_index),
           [ Ast.stmt
               (Ast.CallS
                  ( info.cei_callee,
                    dummy_args ~enabled:options.substitute_dummy_args callee
                      info.cei_args ));
             Ast.stmt (Ast.Goto (generated_label info.cei_index)) ],
           [] ))
  in
  let point_restore index rlabel =
    Ast.stmt
      (Ast.If
         ( Binop (Eq, Var flag_location, Int index),
           [ assign_flag flag_restoring false;
             signal_stmt;
             Ast.stmt (Ast.Goto rlabel) ],
           [] ))
  in
  let dispatch =
    List.filter_map
      (fun edge ->
        match edge with
        | Rg.Call_edge { index; _ } -> (
          match List.find_opt (fun i -> i.cei_index = index) call_infos with
          | Some info -> Some (call_restore info)
          | None -> None)
        | Rg.Point_edge { index; rlabel; _ } -> Some (point_restore index rlabel))
      edges
  in
  let restore_body =
    (if in_main then [ decode_stmt ] else [])
    @ [ restore_stmt capture_vars ]
    @ dispatch
  in
  let restore_block = Ast.stmt (Ast.If (Var flag_restoring, restore_body, [])) in
  let prelude =
    if in_main then
      [ Ast.stmt
          (Ast.If
             ( Binop (Eq, Builtin ("mh_getstatus", []), Str "clone"),
               [ assign_flag flag_restoring true ],
               [ assign_flag flag_restoring false ] ));
        restore_block;
        signal_stmt ]
    else [ restore_block ]
  in
  { proc with body = prelude @ rewritten_body }

(* ------------------------------------------------------------------ *)

let prepare ?(options = default_options) (program : Ast.program) ~points =
  let* () =
    match Typecheck.check program with
    | Ok () -> Ok ()
    | Error errors ->
      Error
        (Fmt.str "program does not typecheck: %a"
           (Fmt.list ~sep:(Fmt.any "; ") Typecheck.pp_error)
           errors)
  in
  let* () = check_reserved program in
  (* From here on, work on the α-renamed program: main's locals no
     longer shadow module globals, so capture lists are duplicate-free. *)
  let program = rename_shadowed_globals program in
  let graph_points = List.map (fun p -> (p.pt_proc, p.pt_label)) points in
  let* graph = Rg.build program ~points:graph_points in
  let base_sets =
    List.filter_map
      (fun (p : Ast.proc) ->
        if Rg.is_relevant graph p.proc_name then
          Some (p, base_capture_list program p)
        else None)
      program.procs
  in
  let capture_sets =
    List.map
      (fun ((p : Ast.proc), base) ->
        let vars =
          if options.use_liveness then trim_by_liveness program p graph base
          else base
        in
        (p.proc_name, vars))
      base_sets
  in
  (* Pre-built lookup tables: O(1) per point/procedure instead of an
     assoc scan over every capture set. *)
  let base_table = Hashtbl.create 16 in
  List.iter
    (fun ((p : Ast.proc), base) -> Hashtbl.replace base_table p.proc_name base)
    base_sets;
  let capture_table = Hashtbl.create 16 in
  List.iter
    (fun (name, vars) -> Hashtbl.replace capture_table name vars)
    capture_sets;
  (* Spec-declared state variables are checked against the full
     (untrimmed) set: liveness may legitimately prune a declared variable
     that is dead at the point. *)
  let* () = validate_point_vars points base_table in
  let procs =
    List.map
      (fun (p : Ast.proc) ->
        match Hashtbl.find_opt capture_table p.proc_name with
        | Some vars -> rewrite_proc ~options program graph vars p
        | None -> p)
      program.procs
  in
  let flag_decl name ty init =
    { Ast.gname = name; gty = ty; ginit = Some init; gline = 0 }
  in
  let globals =
    program.globals
    @ [ flag_decl flag_reconfig Tbool (Bool false);
        flag_decl flag_capturestack Tbool (Bool false);
        flag_decl flag_restoring Tbool (Bool false);
        flag_decl flag_location Tint (Int 0) ]
  in
  let handler =
    { Ast.proc_name = handler_proc_name;
      params = [];
      ret = None;
      body = [ assign_flag flag_reconfig true ];
      proc_line = 0 }
  in
  let prepared_program =
    { program with globals; procs = procs @ [ handler ] }
  in
  (* The output must itself typecheck: a cheap, strong sanity net. *)
  let* () =
    match Typecheck.check prepared_program with
    | Ok () -> Ok ()
    | Error errors ->
      Error
        (Fmt.str "internal error: instrumented program does not typecheck: %a"
           (Fmt.list ~sep:(Fmt.any "; ") Typecheck.pp_error)
           errors)
  in
  Ok { prepared_program; graph; capture_sets }
