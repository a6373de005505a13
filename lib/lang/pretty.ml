open Ast

let rec pp_ty ppf = function
  | Tint -> Fmt.string ppf "int"
  | Tfloat -> Fmt.string ppf "float"
  | Tbool -> Fmt.string ppf "bool"
  | Tstr -> Fmt.string ppf "string"
  | Tarr t -> Fmt.pf ppf "%a[]" pp_ty t
  | Tptr t -> Fmt.pf ppf "%a*" pp_ty t

(* Operator precedence levels, mirroring the parser. Higher binds
   tighter. *)
let binop_prec = function
  | Or -> 1
  | And -> 2
  | Eq | Ne | Lt | Le | Gt | Ge -> 3
  | Cat -> 4
  | Add | Sub -> 5
  | Mul | Div | Mod -> 6

let binop_str = function
  | Or -> "||" | And -> "&&"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | Cat -> "^"
  | Add -> "+" | Sub -> "-"
  | Mul -> "*" | Div -> "/" | Mod -> "%"

let float_literal f =
  let s = Printf.sprintf "%.17g" f in
  if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* [prec] is the minimum precedence that may appear unparenthesised. *)
let rec pp_expr_prec prec ppf e =
  match e with
  | Int i -> if i < 0 then Fmt.pf ppf "(0 - %d)" (-i) else Fmt.int ppf i
  | Float f ->
    if f < 0.0 then Fmt.pf ppf "(0.0 - %s)" (float_literal (-.f))
    else Fmt.string ppf (float_literal f)
  | Bool true -> Fmt.string ppf "true"
  | Bool false -> Fmt.string ppf "false"
  | Str s -> Fmt.pf ppf "\"%s\"" (escape_string s)
  | Null -> Fmt.string ppf "null"
  | Var name -> Fmt.string ppf name
  | Index (base, idx) ->
    Fmt.pf ppf "%a[%a]" (pp_expr_prec 8) base (pp_expr_prec 0) idx
  | Addr (name, idx) -> Fmt.pf ppf "&%s[%a]" name (pp_expr_prec 0) idx
  | Unop (Neg, e) -> pp_unary prec ppf "-" e
  | Unop (Not, e) -> pp_unary prec ppf "!" e
  | Binop (op, a, b) ->
    let p = binop_prec op in
    (* comparisons are non-associative: parenthesise comparison
       children on both sides *)
    let left_prec = match op with Eq | Ne | Lt | Le | Gt | Ge -> p + 1 | _ -> p in
    let open_paren = p < prec in
    if open_paren then Fmt.string ppf "(";
    Fmt.pf ppf "%a %s %a" (pp_expr_prec left_prec) a (binop_str op)
      (pp_expr_prec (p + 1)) b;
    if open_paren then Fmt.string ppf ")"
  | Call (name, args) | Builtin (name, args) ->
    Fmt.pf ppf "%s(%a)" name pp_args args

and pp_unary prec ppf sym e =
  let open_paren = prec > 7 in
  if open_paren then Fmt.string ppf "(";
  Fmt.pf ppf "%s%a" sym (pp_expr_prec 7) e;
  if open_paren then Fmt.string ppf ")"

and pp_args ppf args =
  Fmt.list ~sep:(Fmt.any ", ") (pp_expr_prec 0) ppf args

let pp_expr ppf e = pp_expr_prec 0 ppf e

let pp_lvalue ppf = function
  | Lvar name -> Fmt.string ppf name
  | Lindex (name, idx) -> Fmt.pf ppf "%s[%a]" name pp_expr idx

let pp_arg ppf = function
  | Aexpr e -> pp_expr ppf e
  | Alv lv -> pp_lvalue ppf lv

let rec pp_stmt_indent indent ppf s =
  let pad = String.make indent ' ' in
  Fmt.string ppf pad;
  (match s.label with Some l -> Fmt.pf ppf "%s: " l | None -> ());
  match s.kind with
  | Decl (name, ty, None) -> Fmt.pf ppf "var %s: %a;" name pp_ty ty
  | Decl (name, ty, Some init) ->
    Fmt.pf ppf "var %s: %a = %a;" name pp_ty ty pp_expr init
  | Assign (lv, e) -> Fmt.pf ppf "%a = %a;" pp_lvalue lv pp_expr e
  | If (cond, then_b, []) ->
    Fmt.pf ppf "if (%a) %a" pp_expr cond (pp_block_indent indent) then_b
  | If (cond, then_b, else_b) ->
    Fmt.pf ppf "if (%a) %a else %a" pp_expr cond (pp_block_indent indent) then_b
      (pp_block_indent indent) else_b
  | While (cond, body) ->
    Fmt.pf ppf "while (%a) %a" pp_expr cond (pp_block_indent indent) body
  | CallS (name, args) -> Fmt.pf ppf "%s(%a);" name pp_args args
  | Return None -> Fmt.string ppf "return;"
  | Return (Some e) -> Fmt.pf ppf "return %a;" pp_expr e
  | Goto target -> Fmt.pf ppf "goto %s;" target
  | Print args -> Fmt.pf ppf "print(%a);" pp_args args
  | Sleep e -> Fmt.pf ppf "sleep(%a);" pp_expr e
  | BuiltinS (name, args) ->
    Fmt.pf ppf "%s(%a);" name (Fmt.list ~sep:(Fmt.any ", ") pp_arg) args
  | Skip -> Fmt.string ppf "skip;"

and pp_block_indent indent ppf block =
  if block = [] then Fmt.string ppf "{ }"
  else begin
    Fmt.pf ppf "{@\n";
    List.iter (fun s -> Fmt.pf ppf "%a@\n" (pp_stmt_indent (indent + 2)) s) block;
    Fmt.pf ppf "%s}" (String.make indent ' ')
  end

let pp_stmt ppf s = pp_stmt_indent 0 ppf s

let pp_param ppf { pname; pty; pref } =
  if pref then Fmt.pf ppf "ref %s: %a" pname pp_ty pty
  else Fmt.pf ppf "%s: %a" pname pp_ty pty

let pp_proc ppf p =
  Fmt.pf ppf "proc %s(%a)" p.proc_name
    (Fmt.list ~sep:(Fmt.any ", ") pp_param)
    p.params;
  (match p.ret with Some ty -> Fmt.pf ppf ": %a" pp_ty ty | None -> ());
  Fmt.pf ppf " %a" (pp_block_indent 0) p.body

let pp_global ppf g =
  match g.ginit with
  | None -> Fmt.pf ppf "var %s: %a;" g.gname pp_ty g.gty
  | Some init -> Fmt.pf ppf "var %s: %a = %a;" g.gname pp_ty g.gty pp_expr init

let pp_program ppf p =
  Fmt.pf ppf "module %s;@\n@\n" p.module_name;
  List.iter (fun g -> Fmt.pf ppf "%a@\n" pp_global g) p.globals;
  if p.globals <> [] then Fmt.pf ppf "@\n";
  Fmt.list ~sep:(Fmt.any "@\n@\n") pp_proc ppf p.procs;
  Fmt.pf ppf "@\n"

let ty_to_string t = Fmt.str "%a" pp_ty t
let expr_to_string e = Fmt.str "%a" pp_expr e
let stmt_to_string s = Fmt.str "%a" pp_stmt s
let program_to_string p = Fmt.str "%a" pp_program p
