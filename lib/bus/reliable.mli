(** Opt-in per-route reliable delivery over the faulty bus.

    Installed as the bus's {!Bus.transport}, the layer gives enabled
    routes exactly-once delivery under the fault plane: sequence
    numbers stamped at the sending endpoint, receiver-side duplicate
    suppression, cumulative acks, and retransmission on virtual time.
    Frames and acks ride {!Bus.transmit}, so injected
    [Drop]/[Duplicate] decisions are {e masked} by the protocol rather
    than bypassed, and the seeded PRNG draws stay replayable.

    A frame is resent when it is probably lost, not on a fixed cadence:
    - an ack that moves the cursor restarts the retransmission timer (a
      whole RTO from now, backoff reset to [rto_initial]);
    - the third ack that repeats the cursor while frames are
      outstanding fast-retransmits the lowest unacked frame, once, and
      restarts the timer;
    - only a true timeout, a whole RTO without progress, resends every
      unacked frame (go-back-N), backs off and restarts the
      duplicate-ack count.

    Reconfiguration: {!Dr_reconfig.Journal.rename_transport} re-keys a
    renamed instance's channels with their full sequence state, so a
    clone neither replays nor skips in-flight messages. A rename with
    [fence = true] (supervisor restarting a {e suspected} instance)
    additionally bumps the channel epoch: frames the displaced
    generation already sent are discarded on arrival — the
    false-positive loser's output is inert.

    Every protocol event traces under ["retx"]. Without {!attach} the
    bus is byte-for-byte the classic fire-and-forget implementation. *)

type t

type params = {
  rto_initial : float;  (** first retransmission timeout *)
  rto_backoff : float;  (** multiplier per retransmission round *)
  rto_max : float;  (** backoff ceiling *)
  retx_limit : int;
      (** with a positive limit, a channel that has retransmitted this
          many consecutive timer rounds without the cumulative-ack
          cursor moving goes quiet until a new send or an ack revives
          it; [0] (the default) retransmits forever. The model checker
          runs with a small limit so an adversary that keeps starving
          the ack path cannot pump an unbounded retransmission storm
          (every in-flight copy is explorer state). *)
}

val default_params : params
(** [rto_initial = 4.0], [rto_backoff = 2.0], [rto_max = 16.0],
    [retx_limit = 0]. *)

val attach : ?params:params -> Bus.t -> t
(** Install the layer as the bus transport. No route is reliable until
    {!enable_route} or {!enable_all}. *)

val enable_all : t -> unit
(** Every route gets a reliable channel, created on first send. *)

val enable_route : t -> src:Bus.endpoint -> dst:Bus.endpoint -> unit
(** Make one route reliable (creates its channel eagerly). *)

type stats = {
  st_src : Bus.endpoint;
  st_dst : Bus.endpoint;
  st_epoch : int;
  st_sent : int;  (** fresh frames sent *)
  st_retx : int;  (** retransmissions *)
  st_retx_wait : float;
      (** virtual time spent on expired retransmission timers *)
  st_delivered : int;  (** in-order deliveries to the destination queue *)
  st_dups : int;  (** duplicates suppressed *)
  st_fenced : int;  (** stale-epoch frames discarded *)
  st_unacked : int;  (** frames still awaiting ack *)
  st_dup_acks : int;
      (** acks that repeated the cursor, with frames outstanding, since it
          last moved or the timer last went back N; saturates at 3, where
          the sender fast-retransmits *)
}

val stats : t -> stats list
(** Per-channel counters, sorted by (src, dst). *)

val iter_epochs : t -> (Bus.endpoint * Bus.endpoint -> int -> unit) -> unit
(** [f (src, dst) epoch] for every channel, in no particular order,
    building nothing: for a check that runs after every model-checker
    transition. *)

val total_retx : t -> int

val total_unacked : t -> int

