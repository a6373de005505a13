(** Append-only event trace.

    Components record timestamped, typed events ({!Trace_event.t});
    tests, the model checker's monitors and the benchmark harness read
    them back to check ordering properties (e.g. that rebinding happens
    only after the old module divulged its state). Recording stores the
    event as given and formats nothing: the text view — an entry's
    category and detail — is rendered when a reader asks for it. *)

type entry = { time : float; category : string; detail : string }
(** The text view of one recorded event. *)

type t

val create : unit -> t

val record : t -> time:float -> Trace_event.t -> unit

val entries : t -> entry list
(** In recording order. *)

val since : t -> int -> entry list
(** [since t n] is the entries after the first [n], in recording order,
    in time proportional to the number returned: a reader that keeps
    [length t] as a cursor reads only what was recorded since its last
    visit. Empty when [n >= length t]. *)

val events : t -> (float * Trace_event.t) list
(** The recorded events with their times, in recording order; nothing
    is rendered. *)

val events_since : t -> int -> (float * Trace_event.t) list
(** [events_since t n] is to {!events} what [since] is to {!entries}. *)

val by_category : t -> string -> entry list
(** Renders only the events of that category. *)

val length : t -> int

val clear : t -> unit

val dump : Format.formatter -> t -> unit
