(** The software toolbus (POLYLITH's role in the paper).

    The bus owns the simulated world: hosts (each with an architecture),
    running module instances (MiniProc machines), per-interface message
    queues, directed message routes, and the discrete-event engine that
    interleaves everything deterministically.

    Responsibilities mirror the paper's description of POLYLITH:
    initiating execution of each module, establishing communication
    channels, routing messages (with inter-host latency and
    heterogeneous re-encoding), reporting the current configuration, and
    carrying divulged state between interfaces during reconfiguration. *)

type host = { host_name : string; arch : Dr_state.Arch.t }

type endpoint = string * string
(** (instance name, interface name) *)

type params = {
  instr_cost : float;       (** virtual time per executed instruction *)
  quantum : int;            (** max instructions per scheduling slice *)
  local_latency : float;    (** message latency within a host *)
  remote_latency : float;   (** message latency across hosts *)
}

val default_params : params

type t

val create : ?params:params -> hosts:host list -> unit -> t
(** Each sender memoizes its out-routes with every destination's
    process, so a send hashes no name while the destination lives, and
    deliveries due at the same virtual instant share one event-queue pop
    (a delivery batch). In model-checking mode
    ({!Dr_sim.Engine.mc_enable}) each message is instead its own
    [deliver] event and each woken quantum its own event, so the
    explorer sees every delivery as a choice point. Every machine on the
    bus runs over one io, which acts on the process whose quantum is
    running. *)

val engine : t -> Dr_sim.Engine.t
val trace : t -> Dr_sim.Trace.t
val now : t -> float

val record : t -> Dr_sim.Trace_event.t -> unit
(** Append an event to the trace at the current virtual time. *)

val set_metrics : t -> Dr_obs.Metrics.t -> unit
(** Attach a metrics registry: bus counters (drops, spawns/kills,
    reconfiguration signals), a batch-size histogram, and snapshot-time
    collectors for queue depths, messages in flight and the routed,
    delivered and batch counts ({!domain_stats}). Purely passive — no
    trace entries, no scheduled events, no PRNG draws — so golden traces
    stay byte-identical with metrics attached. [create] auto-attaches a fresh
    registry when the [DRC_METRICS] environment variable is set. *)

val metrics : t -> Dr_obs.Metrics.t option
val params : t -> params

val hosts : t -> host list
val find_host : t -> string -> host option

(** {1 Programs and processes} *)

val register_program : t -> Dr_lang.Ast.program -> (unit, string) result
(** Typecheck, lower once, and file under the program's module name. *)

val register_prepared : t -> Dr_interp.Cache.artifact -> unit
(** File an artifact {!Dr_interp.Cache.prepare} already built, under its
    program's module name: no typecheck and no cache lookup. *)

val registered_modules : t -> string list

val registered_program : t -> string -> Dr_lang.Ast.program option

val spawn :
  t ->
  instance:string ->
  module_name:string ->
  host:string ->
  ?spec:Dr_mil.Spec.module_spec ->
  ?status:string ->
  unit ->
  (unit, string) result
(** Start an instance of a registered module on a host and schedule its
    first quantum. [status] is returned by [mh_getstatus] ("normal" by
    default; pass "clone" for a restoration). *)

val kill : t -> instance:string -> unit
(** Remove a process: it stops running, its routes remain until deleted
    explicitly (reconfiguration scripts delete them). Idempotent: killing
    an already-removed instance records an audit trace entry. *)

val spawn_snapshot :
  t ->
  of_instance:string ->
  instance:string ->
  host:string ->
  (unit, string) result
(** Machine-specific cloning (the strawman of §1.2, used by the
    baselines): deep-copy the running machine of [of_instance] —
    program counters, frames, heap, everything — into a new process on
    [host]. No architecture translation is possible for such a snapshot;
    callers must enforce same-architecture moves themselves. *)

val instances : t -> string list
(** Names of live instances. *)

val instance_host : t -> instance:string -> string option

val instance_generation : t -> instance:string -> int option
(** Monotone spawn generation of the live incarnation of [instance],
    [None] if it is not live. Virtual time can stand still across a
    kill-and-respawn of the same name, so a timestamp cannot distinguish
    the two incarnations; this counter can. The failure detector stamps
    heartbeat evidence with it. *)

val queue_contents : t -> instance:string -> (string * Dr_state.Value.t list) list
(** Snapshot of the instance's input queues (interface, queued values),
    sorted by interface name — folded into the model checker's state
    fingerprint. *)

val instance_spec : t -> instance:string -> Dr_mil.Spec.module_spec option

val instance_module : t -> instance:string -> string option

val machine : t -> instance:string -> Dr_interp.Machine.t option
(** Direct access to the underlying machine (tests, benchmarks,
    baselines). *)

val process_status : t -> instance:string -> Dr_interp.Machine.status option

val outputs : t -> instance:string -> string list
(** Lines printed by the instance so far, oldest first. *)

type roster_entry = {
  r_instance : string;
  r_module : string;
  r_host : string;
  r_status : Dr_interp.Machine.status option;  (** [None] once removed *)
  r_started : float;
  r_ended : float option;  (** removal time *)
  r_instrs : int;
}

val roster : t -> roster_entry list
(** Every instance ever spawned, in spawn order — including removed
    ones. Used by reporting and the benchmarks. *)

val wake : t -> instance:string -> unit
(** Force a blocked/sleeping machine ready and reschedule it. Safe on a
    removed or stopped instance: records an audit trace entry instead. *)

(** {1 Durable control plane}

    The reconfiguration journal ({!Dr_reconfig.Journal}) appends its
    records to a write-ahead log attached here, and the fault plane can
    arm a {e controller crash}: the controller (the reconfiguration
    manager driving the current script) dies immediately after its
    [N]-th control-log append completes. The crash point sits after the
    logged bus operation has been applied, so every record on the log
    corresponds to an applied operation and recovery's undo is exact.
    The raise is swallowed by an engine guard — the application fleet
    keeps running with the controller dead, exactly the stranded state
    {!Dr_reconfig.Recovery} exists to repair. With no WAL attached,
    none of this machinery runs. *)

exception Controller_crash
(** Raised (out of the journal's logging tick) when an armed controller
    crash fires. Never escapes the engine loop: {!arm_ctl_crash}
    installs a guard that abandons the in-flight event. *)

val set_wal : t -> Dr_wal.Wal.t -> unit
(** Attach the control-plane write-ahead log. *)

val wal : t -> Dr_wal.Wal.t option

val arm_ctl_crash : t -> after:int -> unit
(** Arm a single-shot controller crash after the [after]-th control-log
    append (1-based, counted over the bus lifetime — see
    {!ctl_appends}). *)

val ctl_tick : t -> unit
(** Count one control-log append; fires the armed crash when the count
    is reached ([ctl_down] becomes true and {!Controller_crash} is
    raised). Called by the journal, once per logged record, after the
    corresponding bus operation applied. *)

val ctl_appends : t -> int
(** Control-log appends so far (the crash-sweep index space). *)

val controller_down : t -> bool
(** True between an armed crash firing and {!recover_controller} —
    script continuations (deadlines, retries) check this and go
    silent, like callbacks into a dead process would. *)

val recover_controller : t -> unit
(** Bring the controller back (recovery replay runs after this). *)

val next_script_id : t -> int
(** Fresh monotonic script id for journal [Begin] records. *)

val note_script_id : t -> int -> unit
(** Advance the script-id counter to at least [sid] (recovery calls
    this with ids read back from the log so restarted controllers never
    reuse one). *)

val ctl_scripts_open : t -> int
(** Scripts begun and not yet committed or fully rolled back. The
    journal checkpoints the log only at zero — a checkpoint would
    garbage-collect an open script's records. Reset by
    {!recover_controller}. *)

val ctl_script_opened : t -> unit

val ctl_script_closed : t -> unit

(** {1 Fault plane}

    Installed by {!Faults} from a declarative plan; every injection is
    driven by the seeded PRNG and emits a ["fault"] trace entry, so runs
    stay deterministic and replayable from the seed. With no hooks
    installed the bus is byte-for-byte identical to the fault-free
    implementation (pinned by the golden-trace tests). *)

type fault_decision = Deliver | Drop | Duplicate

type fault_hooks = {
  fh_message : src:endpoint -> dst:endpoint -> fault_decision;
      (** consulted once per (source, destination) pair of every send *)
  fh_jitter : unit -> float;  (** extra latency added to each hop *)
}

val set_fault_hooks : t -> fault_hooks -> unit

val clear_fault_hooks : t -> unit

val host_is_down : t -> string -> bool

val crash_host : t -> host:string -> unit
(** Mark the host down: every resident instance's machine transitions to
    [Crashed], its queues are dropped (with audit trace entries), and
    in-flight deliveries to the host fail until {!recover_host}. *)

val recover_host : t -> host:string -> unit
(** Mark the host up again. Instances crashed by {!crash_host} stay
    crashed — restarting them is a supervisor's job
    ({!Dr_reconfig.Supervisor}). *)

val crash_process : t -> instance:string -> reason:string -> unit
(** Injected process crash (kill -9): the machine transitions to
    [Crashed reason]; the instance stays in the roster until killed. *)

(** {1 Transport interception}

    An installed transport (the reliable-delivery layer,
    {!Dr_bus.Reliable}) sees every per-destination send of
    [route_message] before the default fire-and-forget path runs.
    Returning [true] from [tr_send] claims the message; [false] falls
    through to the default batched delivery, byte-for-byte. *)

type transport = {
  tr_send : src:endpoint -> dst:endpoint -> Dr_state.Value.t -> bool;
  tr_rename : old_instance:string -> new_instance:string -> fence:bool -> unit;
      (** re-key per-route delivery state when a reconfiguration renames
          an instance; [fence = true] additionally invalidates frames
          sent under the old name (generation fencing) *)
  tr_retx_wait : instance:string -> float;
      (** cumulative virtual time the transport's retransmission timers
          have spent redelivering frames towards [instance] *)
}

val set_transport : t -> transport -> unit

val has_transport : t -> bool

val transport_rename :
  t -> old_instance:string -> new_instance:string -> fence:bool -> unit
(** Forward a rename to the installed transport; no-op without one. *)

val transport_retx_wait : t -> instance:string -> float
(** Cumulative retransmission-timer wait towards [instance] (0 without
    a transport). Sampled around the drain phase of a reconfiguration
    to separate reliable-layer backoff from genuine quiescence time. *)

val transmit :
  t -> src:endpoint -> dst:endpoint -> (unit -> unit) -> unit
(** One raw timed hop: run the callback at the receiving end after the
    inter-host latency, subject to the fault hooks (a [Drop] decision
    consumes a PRNG draw and records the loss like any message). The
    primitive under reliable frames, acks and detector heartbeats. *)

val deliver_now : t -> dst:endpoint -> Dr_state.Value.t -> bool
(** Enqueue a value at [dst] immediately — no latency, no fault
    decision, no trace on success — and count it as delivered. [false]
    when the destination is gone or its host is down (the reliable
    layer then withholds its ack). *)

val on_activity : t -> (string -> unit) option -> unit
(** Subscribe to message-send activity: the hook is called with the
    sending instance's name on every send. Liveness evidence for
    {!Dr_reconfig.Detector}; never traces. *)

type delivery_kind =
  | Fresh     (** first enqueue of this value at a destination *)
  | Transfer  (** requeue of an already-delivered value
                  (a replacement's [copy_queue]) *)

val set_delivery_observer :
  t -> (dst:endpoint -> kind:delivery_kind -> Dr_state.Value.t -> unit) option -> unit
(** Subscribe to successful input-queue enqueues, on every delivery path
    (routed messages, [inject]/[copy_queue], and the reliable layer's
    [deliver_now]). Strictly
    passive: never schedules, never traces. The model checker's
    exactly-once monitor counts [Fresh] deliveries per message. *)

(** {1 Image quarantine}

    State-image integrity support: the fault plane can arm a one-shot
    corruption for an instance's next capture, and any layer that
    detects a bad image (checksum or digest mismatch) quarantines it
    here with a ["quarantine"] trace entry instead of restoring it. *)

type quarantined = {
  q_time : float;
  q_instance : string;
  q_reason : string;
  q_byte_size : int;
}

val arm_image_corruption : t -> instance:string -> unit

val consume_image_corruption : t -> instance:string -> bool
(** [true] exactly once after an arm: the caller must corrupt the
    in-flight encoded image. Records the injection as a ["fault"]. *)

val quarantine_image :
  t -> instance:string -> reason:string -> byte_size:int -> unit

val quarantined : t -> quarantined list
(** Quarantine log, oldest first: the trace's ["quarantine"] events. *)

(** {1 Routes and queues} *)

val add_route : t -> src:endpoint -> dst:endpoint -> unit
(** Messages written at [src] are delivered to [dst]'s queue. *)

val del_route : t -> src:endpoint -> dst:endpoint -> unit

val routes_from : t -> endpoint -> endpoint list

val routes_to : t -> endpoint -> endpoint list

val all_routes : t -> (endpoint * endpoint) list

val pending_messages : t -> endpoint -> int
(** Queue length at a receiving endpoint. *)

val copy_queue : t -> src:endpoint -> dst:endpoint -> unit
(** Move the pending messages of [src] to [dst] (the script command
    ["cq"] in Fig. 5). *)

val drop_queue : t -> endpoint -> unit
(** Discard pending messages (["rmq"]). *)

val take_queue : t -> endpoint -> Dr_state.Value.t list
(** Drain and return the pending messages, oldest first (used by scripts
    that must park messages while an instance is swapped). *)

val peek_queue : t -> endpoint -> Dr_state.Value.t list
(** The pending messages, oldest first, without draining them (used by
    the reconfiguration journal to snapshot undo state; no trace). *)

val inject : t -> dst:endpoint -> Dr_state.Value.t -> unit
(** Test/driver helper: place a message directly in a queue. *)

(** {1 Drain-aware routing}

    A replica group can be registered as a {e drain group}: siblings
    that serve the same requests. While a member is marked draining
    (the first phase of a rolling replacement), messages delivered to
    it are redirected to a live, non-draining sibling so the member's
    queue runs dry while the group keeps absorbing traffic. With no
    group registered — or no member marked — every delivery path is
    byte-for-byte the plain one (pinned by the golden traces). *)

val set_drain_group : t -> members:string list -> unit
(** Register (or re-register, after a member is renamed by a
    replacement) the sibling set. Each member maps to the full list. *)

val mark_draining : t -> instance:string -> unit
(** Stop admitting new deliveries: subsequent messages for [instance]
    are redirected to a sibling chosen by {!resolve_drain}. Messages
    already queued stay — draining means serving them out. *)

val clear_draining : t -> instance:string -> unit

val is_draining : t -> instance:string -> bool

val draining_instances : t -> string list
(** Every instance currently marked draining, sorted — lets a recovery
    path clear marks left behind by a controller that died mid-drain,
    even when a supervisor has since renamed the generation. *)

val resolve_drain : t -> instance:string -> string option
(** Where a request addressed to [instance] should go right now:
    [instance] itself when it is admitting (live, not draining);
    otherwise a live non-draining sibling (rotating over the group for
    balance); otherwise [instance] itself if it is at least alive
    (draining but present beats dropping); [None] when the whole group
    is unavailable — the caller must {e shed} the request explicitly
    (and count it) rather than lose it silently. Open-loop load
    generators call this at send time; the bus applies the same rule
    to routed deliveries. *)

(** {1 Failure-detector tunables}

    Suspicion parameters for {!Dr_reconfig.Detector}s started on this
    bus. Per-bus rather than compile-time so a rolling-replacement
    canary window can widen the detector's patience first — a replace
    landing inside one heartbeat interval must not race the detector
    into a false suspicion (and a double replacement). *)

type detector_config = {
  dc_period : float;  (** heartbeat/check period *)
  dc_timeout : float;  (** silence beyond this gains suspicion *)
  dc_threshold : int;  (** consecutive silent checks until suspected *)
}

val default_detector_config : detector_config
(** period 1.0, timeout 3.0, threshold 2 — the former compile-time
    constants. *)

val detector_config : t -> detector_config

val set_detector_config : t -> detector_config -> unit
(** Rejects a non-positive threshold, and a period or timeout that is not
    positive and finite, with [Invalid_argument]. Detectors read the config at [start]; changing
    it does not retune detectors already running. *)

(** {1 Reconfiguration support} *)

val signal_reconfig : t -> instance:string -> unit
(** Deliver the reconfiguration signal (SIGHUP in the paper). *)

val on_divulge : t -> instance:string -> (Dr_state.Image.t -> unit) -> unit
(** One-shot callback invoked when the instance runs [mh_encode]. On a
    removed or already-stopped instance the callback would never fire;
    it is discarded with an ["audit"] trace entry (parity with
    {!wake}). *)

val cancel_divulge : t -> instance:string -> unit
(** Disarm a pending {!on_divulge} callback (rollback of a script whose
    deadline expired before the module complied). A later divulge then
    parks its image for the next {!on_divulge} instead of invoking
    anything. *)

val deposit_state :
  t -> instance:string -> ?expect:int64 -> Dr_state.Image.t -> unit
(** Hand a state image to a (possibly blocked) [mh_decode]. On a
    removed or stopped instance, records an ["audit"] trace entry
    instead (parity with {!wake}). When [expect] is given, the image's
    {!Dr_state.Image.digest} is verified first; a mismatch quarantines
    the image ({!quarantine_image}) and nothing is fed. *)

(** {1 Running} *)

val run : ?until:float -> ?max_events:int -> t -> unit

val run_while : t -> ?max_events:int -> (unit -> bool) -> unit
(** Keep firing events while the predicate holds and events remain. *)

val quiescent : t -> bool
(** No events pending (all processes parked or finished). *)

(** {1 Traffic counts} *)

type domain_stats = {
  d_delivered : int;  (** messages enqueued into input queues *)
  d_batches : int;    (** delivery batches drained *)
  d_batched : int;    (** messages carried by those batches *)
}

val domain_stats : t -> domain_stats list
(** The bus's traffic counts, as a one-element list. *)
