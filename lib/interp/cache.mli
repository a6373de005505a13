(** Content-keyed cache of compiled MiniProc programs.

    Keyed on a digest of the marshalled AST, so re-registering the same
    module text — clone spawn, [Script.replace] retries, supervisor
    restarts, the N=1000 scaling workload, model-checking
    configurations of the same workload — reuses one checked, lowered +
    resolved artifact instead of compiling per instance. A caller that
    boots many times from the same programs keeps the artifacts and
    files them with [Dr_bus.Bus.register_prepared], with no lookup.
    Line numbers are part of the key: two ASTs that differ only in
    their [line] fields compile separately. Purely a memoisation: a
    miss compiles exactly what an uncached call would. *)

type artifact = {
  a_program : Dr_lang.Ast.program;  (** the program the artifact was built from *)
  a_code : (string, Ir.proc_code) Hashtbl.t;  (** lowered table *)
  a_resolved : Resolve.program;  (** slot-resolved form for {!Machine.create} *)
}

val prepare :
  Dr_lang.Ast.program -> (artifact, Dr_lang.Typecheck.error list) result
(** Typecheck, lower and resolve [program], or return the cached
    artifact for an identical program (line numbers included). Only
    programs that typecheck are cached, so a hit skips the check; a
    program that fails it counts as neither hit nor miss. *)

val hits : unit -> int
val misses : unit -> int
val entries : unit -> int

val reset : unit -> unit
(** Drop all entries and zero the counters (test isolation). *)
