(** Application deployment: the role of the POLYLITH language processor.

    Given a validated configuration specification and an application
    name, spawn every instance on its host and establish the message
    routes implied by the bindings: one route for a [define]→[use]
    binding, a route in each direction for a [client]↔[server] pair. *)

val deploy :
  Bus.t ->
  config:Dr_mil.Spec.config ->
  app:string ->
  default_host:string ->
  (unit, string) result
(** Validates the configuration, cross-checks each instantiated module's
    registered program against its module specification, spawns the
    instances (host preference: instance [on] clause, then the module's
    [machine] attribute, then [default_host]) and adds the routes.
    Programs must have been registered with {!Bus.register_program}
    under their module names. *)
