(** Discrete-event simulation engine.

    The engine owns a virtual clock and a queue of timestamped events, each a
    thunk run when the clock reaches its time. Events fire in (time,
    scheduling order) order. Everything is deterministic: same schedule
    calls, same execution order.

    The queue keeps one heap node per distinct pending instant, each a
    FIFO of thunks, so an event due at an instant that already has a node
    is queued and fired in O(1) (simultaneous events are the common case
    on the bus). *)

type t

(** {1 Event labels}

    A label classifies an event for the model checker: [lb_kind] names the
    transition family ("quantum", "deliver", "net", "timer", "wake",
    "ctl", ...), [lb_touch] lists the instances the event may read or
    write — the empty list means {e global} (conservatively dependent
    with every other event) — and [lb_info] carries a human-readable
    payload digest for counterexample printing. Labels are inert outside
    model-checking mode. *)
type label = {
  lb_kind : string;
  lb_touch : string list;
  lb_info : string;
}

val tau : label
(** The default label: global touch set, no info. Sound for any event. *)

val label : ?touch:string list -> ?info:string -> string -> label

val create : unit -> t

val now : t -> float
(** Current virtual time. *)

val schedule : ?label:label -> t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at time [now t +. delay]. Negative delays
    are clamped to zero; a NaN delay raises [Invalid_argument]. *)

val schedule_at : ?label:label -> t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant. Times in the past are clamped to [now]; a NaN
    time raises [Invalid_argument]. *)

(** {1 Cancellation} *)

type event
(** A scheduled event that can be withdrawn before it fires. *)

val schedule_event :
  ?label:label -> t -> delay:float -> (unit -> unit) -> event
(** {!schedule}, keeping a handle for {!cancel}. *)

val cancel : t -> event -> unit
(** Withdraw an event. Cancelling an event twice, or after it fired, does
    nothing. In model-checking mode the event leaves the pool: it is
    never in {!mc_pending} again, and its sequence number is not reused,
    so every other event keeps its number. In the heap the event stays
    until it reaches the head; it is then popped and moves the clock to
    its time, as any event does, but its thunk does not run and
    {!events_fired} does not count it. *)

val pending : t -> int
(** Number of events not yet fired (heap plus model-checking pool). A
    cancelled event counts until the heap pops it. *)

val step : t -> bool
(** Pop the single earliest event and fire it unless it was cancelled.
    Returns [false] when the queue is empty. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Step through events in order until the queue empties, the clock would
    pass [until], or [max_events] events have been popped (cancelled ones
    included). A NaN [until] raises [Invalid_argument]. *)

val events_fired : t -> int
(** Total number of events executed so far; cancelled events are not
    counted. *)

val set_guard : t -> (exn -> bool) -> unit
(** Install an exception guard. When an event thunk raises [e] and
    [guard e] is [true], the event is abandoned where it stood and the
    loop continues with the next event — used to model a component
    (e.g. the reconfiguration controller) dying mid-event without
    tearing down the whole simulation. A [false] return re-raises.
    Default: no exception is caught. *)

(** {1 Model-checking mode}

    With MC mode on, scheduled events are parked in a pool instead of the
    time-ordered heap; [step]/[run] see an empty heap and an external
    explorer picks the firing order with [mc_fire]. Virtual time advances
    to [max clock ev_time] on each firing, so the clock stays monotone
    even when events fire out of timestamp order. Enable immediately
    after creating the bus, before any instance is deployed. *)

type pending_event = {
  pe_seq : int;    (** stable identity: replaying the same firing prefix
                       reproduces the same sequence numbers *)
  pe_time : float;
  pe_label : label;
}

val mc_enable : t -> unit
(** Divert scheduling into the MC pool. Raises [Invalid_argument] if the
    heap already holds events. *)

val mc_enabled : t -> bool

val mc_pending : t -> pending_event list
(** Schedulable transitions, in insertion order. *)

val mc_fire : t -> seq:int -> bool
(** Fire the pooled event with sequence number [seq]. Returns [false] if
    no such event is pending. *)
