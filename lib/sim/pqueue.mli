(** Minimum priority queue keyed by [(time, sequence)].

    The sequence number breaks ties deterministically: events scheduled
    earlier fire earlier when their times are equal. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val push : 'a t -> time:float -> seq:int -> 'a -> unit

type 'a entry
(** An element while it is queued. *)

val add : 'a t -> time:float -> seq:int -> 'a -> 'a entry
(** {!push}, keeping a handle on the element. *)

val set_payload : 'a entry -> 'a -> unit
(** Replace a queued element's payload in place; its time and sequence
    number, and so its position, are kept. [pop] returns the payload
    current at that moment. *)

val pop : 'a t -> (float * int * 'a) option
(** Remove and return the minimum element, or [None] when empty. The
    vacated slot is cleared, so popped payloads are not retained by the
    heap array. *)

val clear : 'a t -> unit
(** Discard every pending element (capacity is kept, contents are
    released). *)

val peek_time : 'a t -> float option
(** Time of the minimum element without removing it. *)
