(** Heartbeat failure detector.

    The distributed-systems answer to "is that instance alive?" when
    nothing can read remote state directly: watched instances are
    judged only by the evidence that crosses the bus — every message
    they send ({!Dr_bus.Bus.on_activity}) and periodic heartbeats
    emitted by a host-local watchdog agent, which travel as
    fault-plane-visible traffic ({!Dr_bus.Bus.transmit}) and can be
    lost or delayed like any message. A scoped loss rule on
    [src > _detector] starves the detector of one instance's beats.

    Suspicion is levelled: an instance silent for longer than [timeout]
    at a check tick gains a level; [threshold] consecutive silent ticks
    make it {e suspected} (transition traced under ["suspect"]). Fresh
    evidence resets the level and clears the suspicion. A suspicion can
    be {e wrong} — the supervisor's generation fencing makes acting on
    a false positive safe. *)

type t

val start : Dr_bus.Bus.t -> watch:string list -> t
(** Begin watching, tuned by the bus's detector config
    ({!Dr_bus.Bus.set_detector_config}; period = heartbeat/check tick,
    timeout = max silence before a tick counts against the instance,
    threshold = silent ticks until suspected — 1.0 / 3.0 / 2 out of the
    box). Installs itself as the bus's single activity hook. *)

val stop : t -> unit
(** Stop ticking and release the activity hook. *)

val suspected : t -> instance:string -> bool
(** Current verdict; [false] for unwatched instances. *)

val suspicion : t -> instance:string -> int
(** Current suspicion level (0 = fresh evidence). *)

val watch : t -> instance:string -> unit
(** Add an instance (idempotent; starts with fresh evidence). *)

val unwatch : t -> instance:string -> unit

val rewatch : t -> old_instance:string -> new_instance:string -> unit
(** The supervisor replaced a generation: stop watching the old name,
    start watching the new one with fresh evidence. *)

val watched : t -> string list
(** Watched instance names, sorted. *)

(** {1 Overhead accounting}

    Suspicion bookkeeping is incremental: checks run off a due wheel, so
    a tick touches only the instances whose silence horizon
    passed, not the whole fleet. These counters expose the cost for the
    flatness regression tests. *)

val beats_emitted : t -> int
(** Heartbeats sent so far (one per live, reachable watched instance
    per tick — inherent to the protocol). *)

val checks_performed : t -> int
(** Silence evaluations so far. Stays well below
    [watched x ticks] for an active fleet, and a suspected instance
    costs nothing until evidence clears it. *)
