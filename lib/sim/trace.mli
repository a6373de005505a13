(** Append-only event trace.

    Components record timestamped, categorised entries; tests and the
    benchmark harness read them back to check ordering properties (e.g. that
    rebinding happens only after the old module divulged its state). *)

type entry = { time : float; category : string; detail : string }

type t

val create : unit -> t

val record : t -> time:float -> category:string -> detail:string -> unit

val entries : t -> entry list
(** In recording order. *)

val since : t -> int -> entry list
(** [since t n] is the entries after the first [n], in recording order,
    in time proportional to the number returned: a reader that keeps
    [length t] as a cursor reads only what was recorded since its last
    visit. Empty when [n >= length t]. *)

val by_category : t -> string -> entry list

val length : t -> int

val clear : t -> unit

val pp_entry : Format.formatter -> entry -> unit

val dump : Format.formatter -> t -> unit
