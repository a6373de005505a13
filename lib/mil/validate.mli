(** Static validation of configuration specifications.

    Checks, per application: instances reference declared modules,
    binding endpoints name existing instances and interfaces, binding
    directions are compatible (a sending-capable interface bound to a
    receiving-capable one), and message patterns agree across each
    binding (define→use: equal patterns; client↔server: request and
    reply patterns both agree). *)

type checked = private Spec.config
(** A configuration that passed {!validate}; only {!validate} makes one,
    so holding it is the evidence that the checks ran. Coerce it with
    [(c :> Spec.config)] to read it. *)

val validate : Spec.config -> (checked, string list) result

val check_program_against_spec :
  Spec.module_spec -> Dr_lang.Ast.program -> (unit, string list) result
(** Cross-check a MiniProc module against its specification: the
    reconfiguration point labels exist in the program, declared state
    variables exist in the procedure containing the point, and every
    interface named in [mh_read]/[mh_write]/[mh_query] literals is
    declared with a compatible direction. *)
