(** A token ring whose topology evolves while the token circulates — an
    adaptation of the evolving philosophers problem (Kramer & Magee,
    discussed in the paper's §4). Members pass an incrementing token;
    reconfigurations insert members, migrate a member that may be
    holding the token (its value is then part of the captured process
    state), and remove members by re-routing around them.

    Invariant: the token is never lost or duplicated, so its value
    always equals the total number of passes performed by all members,
    past and present. *)

val mil : string
val sources : (string * string) list
val hosts : Dr_bus.Bus.host list

val load : unit -> Dynrecon.System.t

val start : ?params:Dr_bus.Bus.params -> Dynrecon.System.t -> Dr_bus.Bus.t
(** Deploys the 3-member ring a → b → c → a and injects the initial
    token (value 0) into [a]. *)

val large_mil : n:int -> string
(** MIL text for a generated [n]-member ring (instances [m0..m(n-1)]
    alternating across hosts, no tap) — the bench scaling workload. *)

val member_name : int -> string

val members : n:int -> string list

val load_large : n:int -> Dynrecon.System.t

val start_large :
  ?params:Dr_bus.Bus.params -> ?tokens:int -> Dynrecon.System.t -> n:int ->
  Dr_bus.Bus.t
(** Deploy the [n]-member ring and inject [tokens] (default 1) tokens at
    evenly spaced members, so up to [tokens] deliveries are in flight at
    once. *)

val chaos_plan :
  ?loss:float ->
  ?dup:float ->
  ?jitter:float ->
  ?host_crash:string * float ->
  ?host_recover:float ->
  unit ->
  Dr_bus.Faults.plan
(** A fault plan for the chaos variant: uniform message [loss] (default
    5%) and [dup] probabilities on every route, optional latency
    [jitter], and optionally a host crash at a virtual time (with a
    later recovery). Under loss the token invariant no longer holds —
    chaos runs measure whether {e reconfigurations} stay consistent, not
    whether the application survives an unreliable network. *)

val start_chaos :
  ?params:Dr_bus.Bus.params ->
  ?seed:int ->
  ?plan:Dr_bus.Faults.plan ->
  Dynrecon.System.t ->
  Dr_bus.Bus.t
(** [start] plus {!Dr_bus.Faults.install} of [plan] (default
    {!chaos_plan}[ ()]) seeded with [seed] (default 1) — a deterministic,
    replayable faulty run. *)

val passes : Dr_bus.Bus.t -> instance:string -> int
(** The member's pass counter (-1 if the instance is gone). *)

val total_passes : Dr_bus.Bus.t -> instances:string list -> int

val insert_member :
  Dr_bus.Bus.t ->
  instance:string ->
  host:string ->
  after:string ->
  before:string ->
  (unit, string) result
(** Splice a new member into the ring between [after] and [before]. *)

val bypass_member :
  Dr_bus.Bus.t -> instance:string -> pred:string -> succ:string -> unit
(** Route [pred] around [instance] (first step of safe removal); the
    bypassed member keeps its outgoing route so a token it still holds
    drains to [succ]. *)

val tap_history : Dr_bus.Bus.t -> int list
(** Every token value the tap observer has seen, in order. *)

val history_consecutive : int list -> bool
(** True iff the history is exactly 1, 2, 3, … — the token was never
    lost, duplicated or reordered by any reconfiguration. *)

val history_exactly_once : int list -> bool
(** True iff the history is a permutation of 1, 2, 3, …, n — every token
    observed exactly once, in any order. The right invariant under the
    reliable delivery layer, where retransmission can reorder tokens
    across the member→tap channels without losing or duplicating any. *)
