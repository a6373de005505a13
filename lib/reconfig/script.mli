(** Reconfiguration scripts (Fig. 5): procedural descriptions of the
    events occurring during a reconfiguration, built from the
    {!Primitives}.

    Scripts are asynchronous: they install callbacks and return; the
    reconfiguration completes in virtual time once the target module
    reaches a reconfiguration point and divulges its state. Use
    {!run_sync} to drive the bus until a script finishes.

    The [replace] script is the paper's parameterised replacement: it
    also performs {b migration} (same module, different host — the
    Monitor example) and {b software update} (different module
    implementation, same interfaces). *)

type outcome = (string, string) result
(** [Ok new_instance] or an error message. *)

type retry = {
  attempts : int;  (** total attempts, including the first *)
  backoff : float;  (** virtual-time delay between attempts *)
  alt_hosts : string list;
      (** hosts to cycle through on re-attempts; empty = same host *)
}
(** Retry policy for {!replace}: after a failed (and rolled-back)
    attempt, re-signal the target after [backoff] units of virtual time,
    optionally on the next host from [alt_hosts]. *)

val no_retry : retry
(** One attempt, no backoff. *)

val replace :
  Dr_bus.Bus.t ->
  ?span_kind:string ->
  ?precopy:bool ->
  instance:string ->
  new_instance:string ->
  ?new_module:string ->
  ?new_host:string ->
  ?deadline:float ->
  ?retry:retry ->
  on_done:(outcome -> unit) ->
  unit ->
  unit
(** Fig. 5: capture the old module's current specification and bindings,
    prepare the rebinding batch (delete old routes, add routes to the
    new instance, move pending queues), signal the old module, and once
    it divulges: translate the image for the destination architecture,
    apply the rebinding atomically, start the new instance as a clone,
    deposit the state, and remove the old instance.

    The script is transactional: every primitive goes through a
    {!Journal}, and any failure — spawn error, translation error, or
    [deadline] — rolls the applied prefix back, leaving the old
    configuration fully routed and the old instance in service (its own
    image re-deposited if it had already divulged).

    [deadline] bounds the signal→divulge window in virtual time: if the
    target has not divulged within [deadline] of the script starting
    (it is stuck away from its reconfiguration points, or crashed), the
    attempt is rolled back and fails. [retry] re-runs failed attempts
    after a virtual-time backoff, optionally cycling [alt_hosts].

    When the bus carries a metrics registry ({!Dr_bus.Bus.set_metrics}),
    every attempt opens a span named [span_kind] ("replace" by default;
    {!migrate} passes "migrate") whose children decompose the disruption
    window: signal, drain, capture, translate, restore.

    [?precopy] (default [false]) defers the freeze signal: a one-shot
    hook parks at the target's next reconfiguration point and only then
    signals, so the module keeps serving until it reaches one. The rest
    of the move is the one above, full image included, and with
    [precopy:false] the script is operation-for-operation that one.
    Pre-copy spans start at the freeze (the wait for the first point is
    service, not disruption) and add a zero-width [precopy] child whose
    [wait] attr records that wait. *)

val migrate :
  Dr_bus.Bus.t ->
  ?precopy:bool ->
  instance:string ->
  new_instance:string ->
  new_host:string ->
  on_done:(outcome -> unit) ->
  unit ->
  unit
(** Move a module to another machine ([replace] with a new host). *)

val replicate :
  Dr_bus.Bus.t ->
  instance:string ->
  replica_instance:string ->
  ?replica_host:string ->
  on_done:(outcome -> unit) ->
  unit ->
  unit
(** Capture the module's state once and restore it {e twice}: a clone
    replaces the original (which halted after divulging) under its own
    name and bindings, and a second clone starts under
    [replica_instance] with duplicated bindings, so sources fan out to
    both copies. *)

val replace_stateless :
  Dr_bus.Bus.t ->
  instance:string ->
  new_instance:string ->
  ?new_module:string ->
  ?new_host:string ->
  ?fence:bool ->
  unit ->
  (string, string) result
(** Replacement {e without} module participation, in the style of
    SURGEON [5]: no signal, no state capture — the old instance is
    killed, a fresh one starts with status "normal", routes are
    retargeted and pending queues move. [?fence] (default [false])
    controls the reliable layer's rename: [true] bumps the channel
    epoch so frames the old generation already sent arrive inert — the
    supervisor's choice, since its target is only {e suspected} dead.
    Completes immediately (no
    waiting for a reconfiguration point) but the process state is lost;
    only suitable for modules whose state is externally reconstructible
    (the limitation module participation removes). *)

val add_module :
  Dr_bus.Bus.t ->
  instance:string ->
  module_name:string ->
  host:string ->
  ?spec:Dr_mil.Spec.module_spec ->
  binds:(Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint) list ->
  unit ->
  (unit, string) result

val remove_module : Dr_bus.Bus.t -> instance:string -> unit
(** Delete every route touching the instance, then the instance. *)

val run_sync :
  Dr_bus.Bus.t ->
  ?max_events:int ->
  ?deadline:float ->
  ?watch:string ->
  (on_done:(outcome -> unit) -> unit) ->
  outcome
(** Launch a script and run the bus until it completes (or the event
    budget is exhausted). [watch] names the instance whose compliance
    the script waits on: if it crashes, halts or is removed before the
    script completes, [run_sync] fails fast with a descriptive error
    instead of burning the event budget on other processes' events.
    [deadline] is a coarse driver-side guard: stop (with an error) once
    the script has run for that much virtual time without completing.
    Unlike {!replace}'s own [?deadline] it does not roll anything back —
    prefer the script-level deadline for transactional behaviour. *)
