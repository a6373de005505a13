(** Recursive-descent parser for MiniProc.

    Grammar sketch:
    {v
    program := "module" IDENT ";" (global | proc)*
    global  := "var" IDENT ":" type ("=" expr)? ";"
    proc    := "proc" IDENT "(" params ")" (":" type)? block
    param   := "ref"? IDENT ":" type
    type    := ("int"|"float"|"bool"|"string") ("[]"|"*")*
    stmt    := (IDENT ":")? unlabeled
    v}

    Statement-position calls whose callee is a builtin
    (see {!Builtin_sig}) become [BuiltinS]; expression-position calls to
    expression builtins become [Builtin]. *)

exception Error of string * int
(** [Error (message, line)]. *)

val parse_program : string -> Ast.program
(** Tokens are pulled from the lexer as the parse advances, so the first
    error in the text is the one raised, whichever its kind.
    @raise Error on syntax errors,
    @raise Lexer.Error on lexical errors. *)

val parse_expr : string -> Ast.expr
(** Parse a standalone expression (used by tests). *)
