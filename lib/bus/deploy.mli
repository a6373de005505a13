(** Application deployment: the role of the POLYLITH language processor.

    Given a validated configuration specification and an application
    name, spawn every instance on its host and establish the message
    routes implied by the bindings: one route for a [define]→[use]
    binding, a route in each direction for a [client]↔[server] pair.

    Deployment is a validation, a {!plan} and an {!apply}. The plan
    takes the validated configuration and does every other check and
    resolution that depends only on the configuration and the programs,
    so a caller that already holds the validated configuration
    (a loaded [System.t] does) never validates it again, and one that
    boots the same application many times (the model checker boots one
    per explored execution) plans once and applies the plan to each
    fresh bus. *)

type plan
(** A checked deployment: each instance's module, host and spec, and
    every route, in declaration order. Only {!plan} produces one. *)

val plan :
  config:Dr_mil.Validate.checked ->
  app:string ->
  default_host:string ->
  program:(string -> Dr_lang.Ast.program option) ->
  (plan, string) result
(** Cross-checks each instantiated module's program (looked up by module
    name with [program]) against its module specification, and resolves
    each instance's host (instance [on] clause, then the module's
    [machine] attribute, then [default_host]) and every binding's
    routes. *)

val apply : Bus.t -> plan -> (unit, string) result
(** Spawns the planned instances in declaration order, stopping at the
    first spawn the bus refuses, then adds the routes. The programs
    must be registered on the bus under their module names. *)

val deploy :
  Bus.t ->
  config:Dr_mil.Spec.config ->
  app:string ->
  default_host:string ->
  (unit, string) result
(** {!Dr_mil.Validate.validate} (its errors joined with ["; "]), then
    {!plan} against the programs registered with
    {!Bus.register_program}, then {!apply}. *)
