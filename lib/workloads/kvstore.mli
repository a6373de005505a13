(** A key-value store whose state lives in the heap: a client streams
    [set] commands and issues [get] requests; the store keeps values in
    a heap-allocated array reached through a global. Migrating the store
    exercises heap-block capture and symbolic-pointer translation —
    values written before a migration must be readable after it. *)

val mil : string
val sources : (string * string) list
val hosts : Dr_bus.Bus.host list

val capacity : int

val load : unit -> Dynrecon.System.t
val start : ?params:Dr_bus.Bus.params -> Dynrecon.System.t -> Dr_bus.Bus.t

val client_got : Dr_bus.Bus.t -> (int * int) list
(** (key, value) pairs the client printed from [get] replies. *)

(** A replica-group variant of the store: [n] interchangeable [rstore]
    instances ([s1] .. [sn], one per x86_64 host) answering on a [req]
    interface and replying into a shared sink, the workload of the
    rolling-replacement controller ({!Dr_reconfig.Rolling}). Three
    store builds are registered: [rstore] (v1), [rstorev2] (the upgrade
    target — same semantics) and [rstorebad] (the deliberately-bad
    canary build: every reply carries an unvalidatable value). Replies
    are a pure function of the key, so a request redirected to any
    sibling still validates. *)
module Replica : sig
  val capacity : int

  val encode_request : id:int -> op:int -> key:int -> int
  (** [op] 0 = get, 1 = set; [key < 500]. *)

  val decode_reply : int -> int * int
  (** [(id, value)]. *)

  val expected_get : key:int -> int
  val set_ack : int

  val slot : int -> string
  (** Instance name of the [i]-th replica ([s1] ..). *)

  val sink : Dr_bus.Bus.endpoint
  (** Where replies accumulate ([rsink.out]); never read by a machine —
      the load generator drains it. *)

  val mil : n:int -> string
  val sources : (string * string) list
  val hosts : n:int -> Dr_bus.Bus.host list

  val group : n:int -> (string * string) list
  (** The [(slot, instance)] pairs of a fresh deployment, ready for
      {!Dr_reconfig.Rolling.run} / {!Loadgen.start}. *)

  val load : n:int -> Dynrecon.System.t

  val start :
    ?params:Dr_bus.Bus.params -> n:int -> Dynrecon.System.t -> Dr_bus.Bus.t
end

(** Seeded open-loop traffic generator over a {!Replica} group:
    requests are injected at a fixed rate (loss-free by construction —
    admission control is the drain hook's job), each one addressed
    through {!Dr_bus.Bus.resolve_drain} so draining members are
    avoided and a group with no live member sheds {e explicitly}.
    Every request is accounted exactly-once-or-shed: answered (latency
    recorded into the {!Dr_reconfig.Rolling} metric contract, wrong
    values counted), still in flight, or shed at admission; surplus
    replies count as duplicates. *)
module Loadgen : sig
  type conf = {
    lc_rate : float;  (** requests per unit of virtual time *)
    lc_read_ratio : float;  (** fraction of gets *)
    lc_hot_ratio : float;  (** traffic fraction on the hot key range *)
    lc_hot_keys : int;
    lc_keys : int;  (** total key range (< 500) *)
    lc_seed : int;
    lc_duration : float;  (** stop issuing after this much time *)
  }

  val default_conf : conf

  type t

  val start : Dr_bus.Bus.t -> conf -> slots:(string * string) list -> t
  (** Begin issuing. [slots] is the replica group as [(slot, instance)];
      per-slot metrics are labelled by slot. Attaches a metrics
      registry to the bus if none is present. Ticks stop by themselves
      once issuing is done and every reply is in, so driver [run]
      bounds still terminate. Raises [Invalid_argument] unless
      [lc_rate] is positive and finite. *)

  val retarget : t -> slot:string -> instance:string -> unit
  (** Follow a roster change (feed {!Dr_reconfig.Rolling.run}'s
      [on_retarget] here). *)

  val stop : t -> unit
  (** Stop issuing early (replies keep being collected). *)

  type stats = {
    st_sent : int;
    st_answered : int;
    st_shed : int;
    st_wrong : int;  (** answered with a value that fails validation *)
    st_duplicated : int;
    st_stray : int;  (** non-integer values in the sink *)
    st_inflight : int;  (** sent, not yet answered *)
  }

  val stats : t -> stats
  (** Drains pending replies first. Zero-loss gate:
      [st_sent = st_answered] and [st_inflight = 0] after the fleet
      runs dry. *)
end
