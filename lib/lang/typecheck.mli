(** Static checks for MiniProc programs.

    Verifies name resolution, types, arities, by-reference argument shape,
    label/goto consistency, and builtin usage. Locals are function-scoped
    (as in the paper's C): a declaration anywhere in a procedure body
    creates a cell that exists for the whole activation, zero-initialised
    at frame entry. *)

type error = { message : string; where : string; line : int }

val pp_error : Format.formatter -> error -> unit

val check : Ast.program -> (unit, error list) result
(** All errors found, or [Ok ()] for a well-formed program. *)

val locals_of_proc : Ast.proc -> (string * Ast.ty) list
(** Every local declared anywhere in the body, in declaration order
    (excludes parameters). Shared with the transform, which captures
    parameters plus these locals at call-site edges. *)

val default_value_expr : Ast.ty -> Ast.expr
(** The dummy/zero literal for a type: [0], [0.0], [false], [""], [null].
    Used both for zero-initialisation and for the transform's
    dummy-argument substitution (paper §3). *)
