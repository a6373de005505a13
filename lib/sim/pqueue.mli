(** Minimum priority queue keyed by [(time, sequence)].

    The sequence number breaks ties deterministically: events scheduled
    earlier fire earlier when their times are equal. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val push : 'a t -> time:float -> seq:int -> 'a -> unit

val pop : 'a t -> (float * int * 'a) option
(** Remove and return the minimum element, or [None] when empty. The
    vacated slot is cleared, so popped payloads are not retained by the
    heap array. *)

val clear : 'a t -> unit
(** Discard every pending element (capacity is kept, contents are
    released). *)

val peek_time : 'a t -> float option
(** Time of the minimum element without removing it. *)
