(** Transactional journal for reconfiguration scripts.

    Every primitive a script applies to the bus — routes deleted and
    added, queues moved and dropped, instances spawned and killed,
    divulge callbacks armed — goes through the journal, which records
    the undo information before applying the operation. On any mid-script
    failure (spawn error, state-translation failure, target crash,
    deadline expiry) {!rollback} undoes the applied prefix in reverse
    order, restoring the old routes and queues, cancelling armed
    callbacks, killing a half-started clone, and returning the old
    instance to service (re-depositing its own image if it already
    halted after divulging). {!commit} discards the journal silently, so
    the success path of a script produces exactly the trace it produced
    before journalling existed (pinned by the golden-trace tests).

    {b Durability}: when the bus carries a write-ahead log
    ({!Dr_bus.Bus.set_wal}), the journal follows the write-ahead
    discipline — each primitive's redo+undo record ({!Persist.record})
    is appended durably {e before} the bus operation applies, scripts
    open with a [Begin] record and close with [Commit] or
    [Abort]/[Undo_done]*/[Abort_done], and each divulged state image is
    spilled into the log once. After each record lands the journal runs the
    controller-crash tick ({!Dr_bus.Bus.ctl_tick}), so an armed
    [ctlcrash@N] fault kills the controller precisely between a durable
    record and the next primitive; {!Recovery.replay} then finishes the
    story. With no log attached every [Wal] interaction vanishes and
    behaviour is byte-identical to the in-memory journal. *)

(** The undo record of one applied primitive ({!Persist.entry},
    re-exported). *)
type entry = Persist.entry =
  | Added_route of Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint
  | Deleted_route of Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint
  | Moved_queue of {
      mq_src : Dr_bus.Bus.endpoint;
      mq_dst : Dr_bus.Bus.endpoint;
    }
  | Dropped_queue of Dr_bus.Bus.endpoint * Dr_state.Value.t list
  | Spawned of string
  | Killed of {
      k_instance : string;
      k_module : string;
      k_host : string;
      k_spec : Dr_mil.Spec.module_spec option;
      k_queues : (string * Dr_state.Value.t list) list;
    }
  | Armed_divulge of string
  | Divulged of {
      d_cap : Primitives.module_cap;
      d_image : Dr_state.Image.t;
      d_container : bytes;
    }
  | Renamed_transport of { rt_old : string; rt_new : string; rt_fence : bool }

type t

val create : Dr_bus.Bus.t -> label:string -> t
(** [label] names the transaction in rollback trace entries. On a bus
    with a control log this assigns a fresh script id and appends the
    [Begin] record. *)

val restore :
  Dr_bus.Bus.t -> label:string -> sid:int -> entries:entry list -> t
(** Rebuild a journal from entries read back off the control log
    (oldest first, application order). Appends nothing — the records
    are already durable. For {!Recovery}. *)

val entry_count : t -> int
(** Applied-and-not-yet-committed primitives. *)

val label : t -> string
(** The script label given to {!create} — rollback traces carry it, so
    recovery traces are attributable to the script that died. *)

val sid : t -> int
(** The durable script id (0 on a bus without a control log). *)

(** {1 Journalled primitives}

    Each applies the bus operation (producing its usual trace) and
    records the inverse. *)

val add_route : t -> src:Dr_bus.Bus.endpoint -> dst:Dr_bus.Bus.endpoint -> unit

val del_route : t -> src:Dr_bus.Bus.endpoint -> dst:Dr_bus.Bus.endpoint -> unit

val copy_queue : t -> src:Dr_bus.Bus.endpoint -> dst:Dr_bus.Bus.endpoint -> unit

val drop_queue : t -> Dr_bus.Bus.endpoint -> unit

val spawn :
  t ->
  instance:string ->
  module_name:string ->
  host:string ->
  ?spec:Dr_mil.Spec.module_spec ->
  ?status:string ->
  unit ->
  (unit, string) result

val kill :
  t ->
  instance:string ->
  module_name:string ->
  host:string ->
  ?spec:Dr_mil.Spec.module_spec ->
  unit ->
  unit
(** Remove [instance], first snapshotting its queued messages. Undo
    respawns it (as a clone), re-deposits the image [instance] divulged
    earlier in this script ({!note_divulged}) if there is one, and
    re-injects the snapshotted queues. *)

val arm_divulge : t -> instance:string -> (Dr_state.Image.t -> unit) -> unit
(** {!Dr_bus.Bus.on_divulge} through the journal; undo disarms the
    callback if it has not fired. *)

val note_divulged :
  t ->
  cap:Primitives.module_cap ->
  image:Dr_state.Image.t ->
  container:bytes ->
  unit
(** Record that the target complied: it divulged [image] and is halting.
    [container] is [image]'s abstract container, the bytes the move
    ships; the log records them verbatim. Undo returns the target to
    service — kill the halted shell, respawn it under its own name on
    its own host, re-deposit [image], and re-inject the messages parked
    at its interfaces — unless a later journal entry already restored
    it. *)

val rebind : t -> Primitives.bind_batch -> unit
(** Apply a rebinding batch through the journal, command by command, in
    order, at one instant of virtual time (as {!Primitives.rebind}). *)

val rename_transport :
  t -> old_instance:string -> new_instance:string -> fence:bool -> unit
(** Transfer the reliable layer's per-route sequence state from
    [old_instance] to [new_instance] ({!Dr_bus.Bus.transport_rename});
    undo transfers it back. A complete no-op — no journal entry
    either — when the bus has no transport installed, so fault-free
    rollback step counts are unchanged. *)

val commit : t -> unit
(** Discard the journal: the transaction is complete. Silent — no trace
    entry — so committed scripts trace exactly as they always did. *)

val rollback : t -> reason:string -> unit
(** Undo every recorded primitive, newest first. Records a ["rollback"]
    header plus one ["rollback"] entry per undone primitive, each
    prefixed ["label [i/N]: "] with the entry's 1-based application
    index — so every undo line is attributable to its script and step.
    The journal is empty afterwards; rolling back twice is a no-op. On
    a logged bus this also appends [Abort], one [Undo_done] per undone
    step, and [Abort_done]. *)

val resume_rollback :
  t -> reason:string -> already_undone:int -> abort_logged:bool -> unit
(** {!rollback} for {!Recovery}: skip the [already_undone] newest
    entries (their [Undo_done] records are on the log — the controller
    died mid-rollback), keep the original [i/N] numbering, and don't
    re-append [Abort] when [abort_logged]. With [~already_undone:0
    ~abort_logged:false] this is exactly {!rollback} — replayed
    rollback traces are byte-identical to live ones. *)
