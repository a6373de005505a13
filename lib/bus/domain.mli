(** The broker domain: the bus's flat-array process table and its
    per-hop batching.

    The domain holds the bus's instance fleet in an arena — a flat slot
    array with a free list — replacing per-process hashtable lookups on
    the delivery hot path with array indexing. Handles are generational:
    {!free} bumps the slot's generation, so a cached handle can never
    alias an instance that later reuses the slot (it stops resolving
    and the caller re-resolves by name).

    {!Batch} is the router's per-hop batching: messages due at the same
    virtual delivery time share one event-queue pop. *)

type handle = { h_slot : int; h_gen : int }

val null_handle : handle
(** Never resolves. *)

val is_null : handle -> bool

type 'a t

val create : unit -> 'a t

val alloc : 'a t -> 'a -> handle
(** Place a value in a free slot (reusing freed slots first) and mint a
    handle valid until {!free}. *)

val free : 'a t -> handle -> unit
(** Release the slot and bump its generation, invalidating every handle
    minted for it. No-op on a stale or null handle. *)

val get : 'a t -> handle -> 'a option
(** [None] once the slot was freed (even if since reused) — the
    generation check is the aliasing guard. O(1), no hashing. *)

(** {1 Per-hop batching} *)

module Batch : sig
  type 'm t

  val create : unit -> 'm t

  val add : 'm t -> due:float -> 'm -> bool
  (** Append a message to the batch due at virtual time [due]. [true]
      iff this opened a new batch — the caller must then schedule
      exactly one drain event at [due]. *)

  val drain : 'm t -> due:float -> 'm list
  (** Remove and return the batch due at [due], in insertion order
      (per-route FIFO preserved). *)

  val in_flight : 'm t -> int
  (** Messages currently batched and not yet drained. *)
end
