exception Error of string * int

(* The current token and, once [peek2] has asked for it, the one after.
   Tokens are pulled from the lexer one at a time, so a lexical error
   surfaces only when the parse reaches it, after any earlier parse
   error. *)
type state = {
  lex : Lexer.t;
  mutable tok : Token.t;
  mutable line : int;
  mutable ahead : bool;  (* [tok2] and [line2] hold the next token *)
  mutable tok2 : Token.t;
  mutable line2 : int;
}

let start src =
  let lex = Lexer.create src in
  let tok = Lexer.next lex in
  { lex; tok; line = Lexer.line lex; ahead = false; tok2 = Token.Teof; line2 = 0 }

let peek st = st.tok

let peek2 st =
  if not st.ahead then begin
    st.tok2 <- Lexer.next st.lex;
    st.line2 <- Lexer.line st.lex;
    st.ahead <- true
  end;
  st.tok2

let advance st =
  if st.ahead then begin
    st.tok <- st.tok2;
    st.line <- st.line2;
    st.ahead <- false
  end
  else begin
    st.tok <- Lexer.next st.lex;
    st.line <- Lexer.line st.lex
  end

let fail st message = raise (Error (message, st.line))

let expect st tok =
  if st.tok = tok then advance st
  else
    fail st
      (Printf.sprintf "expected %s but found %s" (Token.to_string tok)
         (Token.to_string st.tok))

let expect_ident st =
  match st.tok with
  | Token.Tident name ->
    advance st;
    name
  | tok ->
    fail st (Printf.sprintf "expected identifier, found %s" (Token.to_string tok))

(* ---------------------------------------------------------------- types *)

let parse_type st =
  let base =
    match peek st with
    | Token.Tty_int -> advance st; Ast.Tint
    | Token.Tty_float -> advance st; Ast.Tfloat
    | Token.Tty_bool -> advance st; Ast.Tbool
    | Token.Tty_str -> advance st; Ast.Tstr
    | tok -> fail st (Printf.sprintf "expected a type, found %s" (Token.to_string tok))
  in
  let rec suffixes ty =
    match peek st with
    | Token.Tlbracket when peek2 st = Token.Trbracket ->
      advance st;
      advance st;
      suffixes (Ast.Tarr ty)
    | Token.Tstar ->
      advance st;
      suffixes (Ast.Tptr ty)
    | _ -> ty
  in
  suffixes base

(* ----------------------------------------------------------- expressions *)

(* Precedence climbing: || < && < comparison < ^ < additive <
   multiplicative < unary < postfix. *)

let rec parse_expr_prec st =
  let lhs = parse_and st in
  let rec loop lhs =
    match peek st with
    | Token.Toror ->
      advance st;
      let rhs = parse_and st in
      loop (Ast.Binop (Ast.Or, lhs, rhs))
    | _ -> lhs
  in
  loop lhs

and parse_and st =
  let lhs = parse_cmp st in
  let rec loop lhs =
    match peek st with
    | Token.Tandand ->
      advance st;
      let rhs = parse_cmp st in
      loop (Ast.Binop (Ast.And, lhs, rhs))
    | _ -> lhs
  in
  loop lhs

and parse_cmp st =
  let lhs = parse_cat st in
  let op =
    match peek st with
    | Token.Teq -> Some Ast.Eq
    | Token.Tne -> Some Ast.Ne
    | Token.Tlt -> Some Ast.Lt
    | Token.Tle -> Some Ast.Le
    | Token.Tgt -> Some Ast.Gt
    | Token.Tge -> Some Ast.Ge
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    advance st;
    let rhs = parse_cat st in
    Ast.Binop (op, lhs, rhs)

and parse_cat st =
  let lhs = parse_add st in
  let rec loop lhs =
    match peek st with
    | Token.Tcaret ->
      advance st;
      let rhs = parse_add st in
      loop (Ast.Binop (Ast.Cat, lhs, rhs))
    | _ -> lhs
  in
  loop lhs

and parse_add st =
  let lhs = parse_mul st in
  let rec loop lhs =
    match peek st with
    | Token.Tplus ->
      advance st;
      let rhs = parse_mul st in
      loop (Ast.Binop (Ast.Add, lhs, rhs))
    | Token.Tminus ->
      advance st;
      let rhs = parse_mul st in
      loop (Ast.Binop (Ast.Sub, lhs, rhs))
    | _ -> lhs
  in
  loop lhs

and parse_mul st =
  let lhs = parse_unary st in
  let rec loop lhs =
    match peek st with
    | Token.Tstar ->
      advance st;
      let rhs = parse_unary st in
      loop (Ast.Binop (Ast.Mul, lhs, rhs))
    | Token.Tslash ->
      advance st;
      let rhs = parse_unary st in
      loop (Ast.Binop (Ast.Div, lhs, rhs))
    | Token.Tpercent ->
      advance st;
      let rhs = parse_unary st in
      loop (Ast.Binop (Ast.Mod, lhs, rhs))
    | _ -> lhs
  in
  loop lhs

and parse_unary st =
  match peek st with
  | Token.Tminus ->
    advance st;
    let e = parse_unary st in
    Ast.Unop (Ast.Neg, e)
  | Token.Tbang ->
    advance st;
    let e = parse_unary st in
    Ast.Unop (Ast.Not, e)
  | Token.Tamp ->
    advance st;
    let name = expect_ident st in
    expect st Token.Tlbracket;
    let idx = parse_expr_prec st in
    expect st Token.Trbracket;
    (* allow further postfix indexing: (&a[i])[j] *)
    parse_postfix_from st (Ast.Addr (name, idx))
  | _ -> parse_postfix st

and parse_postfix st = parse_postfix_from st (parse_atom st)

and parse_postfix_from st atom =
  let rec loop e =
    match peek st with
    | Token.Tlbracket ->
      advance st;
      let idx = parse_expr_prec st in
      expect st Token.Trbracket;
      loop (Ast.Index (e, idx))
    | _ -> e
  in
  loop atom

and parse_atom st =
  match st.tok with
  | Token.Tint_lit i ->
    advance st;
    Ast.Int i
  | Token.Tfloat_lit f ->
    advance st;
    Ast.Float f
  | Token.Tstr_lit s ->
    advance st;
    Ast.Str s
  | Token.Ttrue ->
    advance st;
    Ast.Bool true
  | Token.Tfalse ->
    advance st;
    Ast.Bool false
  | Token.Tnull ->
    advance st;
    Ast.Null
  (* [float(e)] and [int(e)] use type keywords as builtin names. *)
  | Token.Tty_float when peek2 st = Token.Tlparen ->
    advance st;
    let args = parse_call_args st in
    Ast.Builtin ("float", args)
  | Token.Tty_int when peek2 st = Token.Tlparen ->
    advance st;
    let args = parse_call_args st in
    Ast.Builtin ("int", args)
  | Token.Tident name ->
    advance st;
    if peek st = Token.Tlparen then begin
      let args = parse_call_args st in
      if Builtin_sig.is_expr_builtin name then Ast.Builtin (name, args)
      else Ast.Call (name, args)
    end
    else Ast.Var name
  | Token.Tlparen ->
    advance st;
    let e = parse_expr_prec st in
    expect st Token.Trparen;
    e
  | tok ->
    fail st
      (Printf.sprintf "expected an expression, found %s"
         (Token.to_string tok))

and parse_call_args st =
  expect st Token.Tlparen;
  if peek st = Token.Trparen then begin
    advance st;
    []
  end
  else begin
    let rec loop acc =
      let e = parse_expr_prec st in
      match peek st with
      | Token.Tcomma ->
        advance st;
        loop (e :: acc)
      | _ ->
        expect st Token.Trparen;
        List.rev (e :: acc)
    in
    loop []
  end

(* ------------------------------------------------------------ statements *)

let expr_to_lvalue st = function
  | Ast.Var name -> Ast.Lvar name
  | Ast.Index (Ast.Var name, idx) -> Ast.Lindex (name, idx)
  | _ -> fail st "builtin output argument must be a variable or an indexed cell"

let builtin_args st (signature : Builtin_sig.stmt_sig) exprs =
  let n = List.length exprs in
  if n < signature.min_arity || ((not signature.variadic) && n > signature.min_arity)
  then
    fail st
      (Printf.sprintf "builtin %s expects %s%d argument(s), got %d"
         signature.s_name
         (if signature.variadic then "at least " else "")
         signature.min_arity n);
  List.mapi
    (fun i e ->
      let is_out =
        match signature.out_positions with
        | `None -> false
        | `All -> true
        | `From k -> i >= k
      in
      if is_out then Ast.Alv (expr_to_lvalue st e) else Ast.Aexpr e)
    exprs

let rec parse_stmt st =
  let label =
    match st.tok with
    | Token.Tident name when peek2 st = Token.Tcolon ->
      advance st;
      advance st;
      Some name
    | _ -> None
  in
  let ln = st.line in
  let kind = parse_stmt_kind st in
  { Ast.label; kind; line = ln }

and parse_stmt_kind st =
  match st.tok with
  | Token.Tvar ->
    advance st;
    let name = expect_ident st in
    expect st Token.Tcolon;
    let ty = parse_type st in
    let init =
      if peek st = Token.Tassign then begin
        advance st;
        Some (parse_expr_prec st)
      end
      else None
    in
    expect st Token.Tsemi;
    Ast.Decl (name, ty, init)
  | Token.Tif ->
    advance st;
    expect st Token.Tlparen;
    let cond = parse_expr_prec st in
    expect st Token.Trparen;
    let then_b = parse_block st in
    let else_b =
      if peek st = Token.Telse then begin
        advance st;
        if peek st = Token.Tif then [ parse_stmt st ] else parse_block st
      end
      else []
    in
    Ast.If (cond, then_b, else_b)
  | Token.Twhile ->
    advance st;
    expect st Token.Tlparen;
    let cond = parse_expr_prec st in
    expect st Token.Trparen;
    let body = parse_block st in
    Ast.While (cond, body)
  | Token.Treturn ->
    advance st;
    if peek st = Token.Tsemi then begin
      advance st;
      Ast.Return None
    end
    else begin
      let e = parse_expr_prec st in
      expect st Token.Tsemi;
      Ast.Return (Some e)
    end
  | Token.Tgoto ->
    advance st;
    let target = expect_ident st in
    expect st Token.Tsemi;
    Ast.Goto target
  | Token.Tprint ->
    advance st;
    let args = parse_call_args st in
    expect st Token.Tsemi;
    Ast.Print args
  | Token.Tsleep ->
    advance st;
    expect st Token.Tlparen;
    let e = parse_expr_prec st in
    expect st Token.Trparen;
    expect st Token.Tsemi;
    Ast.Sleep e
  | Token.Tskip ->
    advance st;
    expect st Token.Tsemi;
    Ast.Skip
  | Token.Tident name when peek2 st = Token.Tlparen -> (
    advance st;
    let exprs = parse_call_args st in
    expect st Token.Tsemi;
    match Builtin_sig.stmt_sig name with
    | Some signature -> Ast.BuiltinS (name, builtin_args st signature exprs)
    | None ->
      if Builtin_sig.is_expr_builtin name then
        fail st (Printf.sprintf "builtin %s is an expression, not a statement" name)
      else Ast.CallS (name, exprs))
  | Token.Tident _ ->
    let lv =
      let name = expect_ident st in
      if peek st = Token.Tlbracket then begin
        advance st;
        let idx = parse_expr_prec st in
        expect st Token.Trbracket;
        Ast.Lindex (name, idx)
      end
      else Ast.Lvar name
    in
    expect st Token.Tassign;
    let e = parse_expr_prec st in
    expect st Token.Tsemi;
    Ast.Assign (lv, e)
  | tok ->
    fail st (Printf.sprintf "expected a statement, found %s" (Token.to_string tok))

and parse_block st =
  expect st Token.Tlbrace;
  let rec loop acc =
    if peek st = Token.Trbrace then begin
      advance st;
      List.rev acc
    end
    else loop (parse_stmt st :: acc)
  in
  loop []

(* ----------------------------------------------------------- top level *)

let parse_param st =
  let pref =
    if peek st = Token.Tref then begin
      advance st;
      true
    end
    else false
  in
  let pname = expect_ident st in
  expect st Token.Tcolon;
  let pty = parse_type st in
  { Ast.pname; pty; pref }

let parse_params st =
  expect st Token.Tlparen;
  if peek st = Token.Trparen then begin
    advance st;
    []
  end
  else begin
    let rec loop acc =
      let p = parse_param st in
      match peek st with
      | Token.Tcomma ->
        advance st;
        loop (p :: acc)
      | _ ->
        expect st Token.Trparen;
        List.rev (p :: acc)
    in
    loop []
  end

let parse_program src =
  let st = start src in
  expect st Token.Tmodule;
  let module_name = expect_ident st in
  expect st Token.Tsemi;
  let globals = ref [] in
  let procs = ref [] in
  let rec loop () =
    match st.tok with
    | Token.Teof -> ()
    | Token.Tvar ->
      let ln = st.line in
      advance st;
      let gname = expect_ident st in
      expect st Token.Tcolon;
      let gty = parse_type st in
      let ginit =
        if peek st = Token.Tassign then begin
          advance st;
          Some (parse_expr_prec st)
        end
        else None
      in
      expect st Token.Tsemi;
      globals := { Ast.gname; gty; ginit; gline = ln } :: !globals;
      loop ()
    | Token.Tproc ->
      let ln = st.line in
      advance st;
      let proc_name = expect_ident st in
      let params = parse_params st in
      let ret =
        if peek st = Token.Tcolon then begin
          advance st;
          Some (parse_type st)
        end
        else None
      in
      let body = parse_block st in
      procs := { Ast.proc_name; params; ret; body; proc_line = ln } :: !procs;
      loop ()
    | tok ->
      fail st
        (Printf.sprintf "expected 'var' or 'proc', found %s"
           (Token.to_string tok))
  in
  loop ();
  { Ast.module_name; globals = List.rev !globals; procs = List.rev !procs }

let parse_expr src =
  let st = start src in
  let e = parse_expr_prec st in
  (match st.tok with
  | Token.Teof -> ()
  | tok ->
    fail st (Printf.sprintf "trailing input: %s" (Token.to_string tok)));
  e
