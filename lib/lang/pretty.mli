(** Pretty-printer for MiniProc.

    The printer and {!Parser} round-trip: for any well-formed program [p],
    [Parser.parse_program (Pretty.program_to_string p)] is structurally
    equal to [p] (modulo line numbers). The transform relies on this to
    emit instrumented modules as ordinary source text. *)

val pp_expr : Format.formatter -> Ast.expr -> unit
val pp_lvalue : Format.formatter -> Ast.lvalue -> unit

val ty_to_string : Ast.ty -> string
val expr_to_string : Ast.expr -> string
val stmt_to_string : Ast.stmt -> string
val program_to_string : Ast.program -> string
