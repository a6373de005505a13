(** An elastic worker farm: a feeder produces jobs, a dispatcher
    round-robins them over up to three worker slots, workers compute and
    report to a collector. The active slot count is itself application
    state (changed by control messages), workers are added and retired
    at run time, and the dispatcher — the stateful coordinator — can be
    migrated under load.

    Invariant: every job's result arrives at the collector exactly once,
    whatever reconfigurations happen in flight. *)

val mil : string
val sources : (string * string) list
val hosts : Dr_bus.Bus.host list

val job_count : int
(** The feeder produces jobs 1..job_count, then stops. *)

val load : unit -> Dynrecon.System.t

val start : ?params:Dr_bus.Bus.params -> Dynrecon.System.t -> Dr_bus.Bus.t
(** Deploys the farm with worker slot 1 occupied (instance [w1]). *)

val scale_out : Dr_bus.Bus.t -> slot:int -> host:string -> (string, string) result
(** Occupy slot 2 or 3: spawn a worker, bind it, and raise the
    dispatcher's active-slot count. Returns the worker's instance
    name. *)

val scale_in : Dr_bus.Bus.t -> unit
(** Lower the dispatcher's active-slot count by one (the highest
    occupied slot stops receiving new jobs; its queue drains). *)

val worker_drain_group : Dr_bus.Bus.t -> string list
(** Register the live workers as a bus drain group
    ({!Dr_bus.Bus.set_drain_group}) and return them, sorted — jobs
    routed to a member marked draining are absorbed by its siblings,
    on the {e routed} delivery path (unlike the kvstore group, which
    is driven by direct injection). *)

val results : Dr_bus.Bus.t -> int list
(** Job results the collector has received, in arrival order. *)

val expected_results : int list
(** Squares of 1..job_count, sorted. *)
