(** End-to-end platform API: load a configuration and module sources,
    automatically prepare modules for reconfiguration, deploy, and run
    reconfiguration scripts.

    This is the workflow of the paper: the programmer writes ordinary
    modules plus reconfiguration-point labels, declares the points in
    the configuration specification, and the platform does the rest. *)

type loaded_module = {
  lm_name : string;
  lm_spec : Dr_mil.Spec.module_spec;
  lm_original : Dr_lang.Ast.program;
  lm_prepared : Dr_transform.Instrument.prepared option;
      (** [Some] iff the specification declares reconfiguration points *)
}

type t = {
  config : Dr_mil.Validate.checked;
      (** validated once, by {!load}; {!start} plans from it as it is *)
  modules : loaded_module list;
}

val load :
  mil:string ->
  sources:(string * string) list ->
  ?options:Dr_transform.Instrument.options ->
  ?optimize:bool ->
  unit ->
  (t, string) result
(** Parse and validate the configuration, parse and typecheck each
    module source (keyed by module name), cross-check programs against
    their specifications, and run the transformation on every module
    with declared reconfiguration points. With [optimize] (default
    false), every module is constant-folded and loop-invariant-hoisted
    first; reconfiguration-point labels act as motion barriers, so the
    declared points survive unchanged. *)

val find_module : t -> string -> loaded_module option

val deployed_program : loaded_module -> Dr_lang.Ast.program
(** The program actually deployed: the instrumented one when prepared. *)

val instrumented_source : t -> string -> string option
(** Pretty-printed instrumented source of a module (Fig. 4). *)

val start :
  t ->
  app:string ->
  hosts:Dr_bus.Bus.host list ->
  ?params:Dr_bus.Bus.params ->
  ?default_host:string ->
  unit ->
  (Dr_bus.Bus.t, string) result
(** Create a bus over [hosts], register every module's deployed program,
    and deploy the named application: {!Dr_bus.Deploy.plan} from the
    configuration {!load} validated, then {!Dr_bus.Deploy.apply}.
    [default_host] defaults to the first host. *)

(** {1 Synchronous reconfiguration wrappers} *)

val migrate :
  ?precopy:bool ->
  ?deadline:float ->
  ?retry:Dr_reconfig.Script.retry ->
  Dr_bus.Bus.t ->
  instance:string ->
  new_instance:string ->
  new_host:string ->
  (string, string) result
(** [deadline] and [retry] behave as in {!replace} (a migration is a
    replace onto [new_host]); without them the classic fail-fast watch
    on [instance] applies. *)

val replace :
  Dr_bus.Bus.t ->
  ?precopy:bool ->
  instance:string ->
  new_instance:string ->
  ?new_module:string ->
  ?new_host:string ->
  ?deadline:float ->
  ?retry:Dr_reconfig.Script.retry ->
  unit ->
  (string, string) result
(** [deadline] and [retry] are forwarded to
    {!Dr_reconfig.Script.replace}: a bounded signal→divulge window with
    transactional rollback, and re-attempts with virtual-time backoff.
    When a deadline or retry policy is given the run is no longer
    fail-fast on a crashed target — the script's own deadline governs.
    [precopy] (default [false]) lets the target serve on to its next
    reconfiguration point before the freeze signal
    ({!Dr_reconfig.Script.replace}). *)

val replicate :
  Dr_bus.Bus.t ->
  instance:string ->
  replica_instance:string ->
  ?replica_host:string ->
  unit ->
  (string, string) result
