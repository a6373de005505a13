(** The source-to-source transformation of the paper (§2.1, §3).

    Given a program and its reconfiguration points, [prepare] emits a new
    program in which every procedure of the reconfiguration graph has
    been given:

    - a {b restore block} at its entry (Fig. 8);
    - a {b capture block} after each call site on a path to a point
      (Fig. 7, second form), followed by a generated label [_Li];
    - a {b capture block} before each reconfiguration point (Fig. 7,
      first form);

    plus module-level flags ([mh_reconfig], [mh_capturestack],
    [mh_restoring], [mh_location]), and the signal handler procedure
    [mh_catchreconfig]. [main] additionally gets the clone-status check,
    [mh_decode], capture of module globals, and the initial
    [signal(...)] installation (Fig. 4).

    The output is ordinary MiniProc source: it pretty-prints, re-parses
    and typechecks, and when no reconfiguration signal arrives it behaves
    exactly like the input (transform transparency).

    Capture sets are uniform per procedure — parameters, then locals (for
    [main], also module globals) — because the procedure's single restore
    block reads every record with one [mh_restore] (Fig. 8). With
    [use_liveness] the set is trimmed to the union of the live sets at
    the procedure's edges (the paper's suggested dataflow refinement);
    by-reference parameters and globals are always kept. *)

type point_spec = {
  pt_proc : string;
  pt_label : string;
  pt_vars : string list option;
      (** spec-declared state variables; validated against the computed
          capture set when present *)
}

type options = {
  use_liveness : bool;
      (** trim capture sets with live-variable analysis (§3) *)
  substitute_dummy_args : bool;
      (** replace faultable argument expressions in restore
          re-invocations (§3); disabling this reproduces the hazard the
          paper describes — kept as an ablation switch *)
}

val default_options : options

type prepared = {
  prepared_program : Dr_lang.Ast.program;
  graph : Dr_analysis.Reconfig_graph.t;
  capture_sets : (string * string list) list;
      (** per instrumented procedure, the ordered variable list each of
          its capture blocks records *)
}

val prepare :
  ?options:options ->
  Dr_lang.Ast.program ->
  points:point_spec list ->
  (prepared, string) result

val validate_point_vars :
  point_spec list -> (string, string list) Hashtbl.t -> (unit, string) result
(** Check each point's declared state variables ([pt_vars]) against the
    capture-set table. A point naming a procedure absent from the table
    is an error (never a silent skip): {!Dr_analysis.Reconfig_graph}
    already rejects unknown procedures, and this guards the same
    invariant at the capture-set layer. Exposed for direct testing. *)

val generated_label : int -> string
(** The label the transform places after call-edge [i] ("_Li"). *)

val flag_globals : string list
(** Names of the injected module-level flags. *)

val handler_proc_name : string
