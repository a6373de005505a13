(** Declarative fault injection for the bus.

    A {!plan} names what goes wrong and when: host crashes and
    recoveries at virtual times, injected process crashes, per-route
    message loss and duplication probabilities, and latency jitter.
    {!install} arms the plan on a bus: timed events are scheduled on the
    engine and the probabilistic decisions are wired into the bus's
    fault hooks, driven by a {!Dr_sim.Prng} seeded from [seed] — so a
    chaos run is exactly as deterministic and replayable as a fault-free
    one. Every injection emits a ["fault"] trace entry.

    With {!no_faults} (or without [install]) the bus behaves
    byte-for-byte like the fault-free implementation. *)

type event =
  | Host_crash of string  (** mark the host down; crash its residents *)
  | Host_recover of string
  | Process_crash of string  (** kill -9 one instance *)
  | Image_corrupt of string
      (** arm a one-shot corruption of the instance's next captured
          state image ({!Bus.arm_image_corruption}); the codec's
          checksum catches it and the image is quarantined *)

type rule = {
  r_src : string option;  (** match the sending instance; [None] = any *)
  r_dst : string option;  (** match the receiving instance; [None] = any *)
  r_loss : float;  (** per-message drop probability, [0, 1] *)
  r_dup : float;  (** per-message duplication probability, [0, 1] *)
}

type plan = {
  fp_events : (float * event) list;  (** (virtual time, event) *)
  fp_rules : rule list;  (** first matching rule wins *)
  fp_jitter : float;  (** max uniform extra latency per hop *)
  fp_ctl_crash : int option;
      (** kill the reconfiguration controller after this many
          control-log appends ({!Bus.arm_ctl_crash}) — an index into
          the journal's append sequence, not a virtual time, so the
          crash lands at an exact point of the script's durable
          history regardless of scheduling *)
}

val no_faults : plan

val rule : ?src:string -> ?dst:string -> ?loss:float -> ?dup:float -> unit -> rule
(** Loss and duplication default to 0. *)

val plan :
  ?events:(float * event) list ->
  ?rules:rule list ->
  ?jitter:float ->
  ?ctl_crash:int ->
  unit ->
  plan

val install : Bus.t -> seed:int -> plan -> unit
(** Schedule the plan's timed events and set the bus's fault hooks.
    Installing {!no_faults} only clears the hooks. *)

val parse_plan : string -> (int * plan, string) result
(** Parse a command-line fault specification: comma-separated clauses
    [seed=N], [loss=P], [dup=P] (optionally scoped [loss@src>dst=P] with
    [*] wildcards), [jitter=J], [crash=host@T], [recover=host@T],
    [kill=instance@T], [corrupt=instance@T], [ctlcrash@N] (controller
    crash after the Nth control-log append, 1-based). Returns the seed
    (default 0) and the plan.

    Malformed or contradictory specifications are rejected with a
    descriptive error: negative or non-finite [@T] times, non-finite
    [loss]/[dup]/[jitter] values, duplicate timed clauses,
    a crash and recover of the same host at the same instant, and a
    loss/dup rule whose scope an earlier, broader rule already covers
    (first match wins, so the later clause could never fire). *)

val explorable :
  Bus.t -> decide:(src:Bus.endpoint -> dst:Bus.endpoint -> Bus.fault_decision) -> unit
(** Delegate every per-message fault decision to [decide] instead of the
    seeded PRNG, with zero jitter. This is the model checker's hook:
    each send becomes an explicit choice point owned by the explorer
    ({!Dr_mc.Explorer}), so loss and duplication are enumerated rather
    than sampled. *)
