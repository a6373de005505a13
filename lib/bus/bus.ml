module Engine = Dr_sim.Engine
module Trace = Dr_sim.Trace
module E = Dr_sim.Trace_event
module Machine = Dr_interp.Machine
module Value = Dr_state.Value
module Image = Dr_state.Image
module Metrics = Dr_obs.Metrics

type host = { host_name : string; arch : Dr_state.Arch.t }

type endpoint = string * string

type params = {
  instr_cost : float;
  quantum : int;
  local_latency : float;
  remote_latency : float;
}

let default_params =
  { instr_cost = 0.01; quantum = 64; local_latency = 0.1; remote_latency = 1.0 }

(* Send-path structures: each process memoizes its last-used out-route
   set, one entry per destination, holding the destination's process.
   The memo is versioned against [routes_version] (bumped on any
   route/roster change), and an entry whose process has died re-resolves
   by name, so a kill or replace can never leave an entry pointing at a
   dead instance: at worst the entry falls back to the by-name lookup
   and re-warms itself. An entry also carries what a message needs when
   its destination dies in flight: the sender's endpoint and the
   send-time fan-out set. *)
type dest_entry = {
  de_src : endpoint;
  de_dst : endpoint;
  de_peers : endpoint list;  (* send-time fan-out set, for redirects *)
  mutable de_proc : process option;
}

and out_memo = {
  om_iface : string;
  om_version : int;
  om_dests : dest_entry array;
}

(* An input queue: a ring buffer of values whose capacity is a power of
   two, or [[||]] until a value arrives. A pop clears the slot it
   empties, so the buffer keeps nothing alive. *)
and queue = {
  q_iface : string;
  mutable q_buf : Value.t array;
  mutable q_head : int;  (* slot of the oldest value *)
  mutable q_len : int;
}

and process = {
  p_instance : string;
  p_module : string;
  p_gen : int;
      (* monotone spawn generation: virtual time can stand still across a
         kill-and-respawn of the same name, so a timestamp cannot tell
         the two incarnations apart — this counter can *)
  mutable p_host : host;
  p_spec : Dr_mil.Spec.module_spec option;
  p_machine : Machine.t;
  mutable p_queues : queue list;
      (* one per interface touched so far, newest first: a process has
         one to three, so a lookup is a string compare or two *)
  mutable p_outputs : string list;  (* reverse order *)
  mutable p_divulged : Image.t list;  (* queue of divulged images *)
  mutable p_on_divulge : (Image.t -> unit) option;
  mutable p_alive : bool;
  mutable p_scheduled : bool;
  p_started : float;
  mutable p_ended : float option;
  mutable p_out_memo : out_memo option;
  p_wake : unit -> unit;
      (* the process's one wake thunk, for a sleep's end or a read a
         delivery satisfied: scheduling or running it allocates nothing *)
}

(* The router's per-hop batching: the messages due at one virtual
   delivery instant, in send order (per-route FIFO), drained by one
   event. Delivery times repeat heavily (fixed latencies, lock-stepped
   workloads), which is what makes batching pay; a jittered message
   lands in a batch of its own. In model-checking mode every message is
   a batch of its own, a choice point for the explorer. A drained batch
   is kept for reuse, [b_drain] and all. *)
type batch = {
  mutable b_due : float;  (* NaN unless open in [t.batches_open] *)
  mutable b_dests : dest_entry array;
  mutable b_values : Value.t array;
  mutable b_woken : (unit -> unit) array;  (* wake thunks, wake order *)
  mutable b_len : int;
  mutable b_drain : unit -> unit;
}

(* Hot-path data structures: [live] indexes the current process per
   instance name and [route_index] the out-routes per source endpoint,
   so deliver/route_message are O(1) in the instance and route counts.
   [procs_rev] and [routes_rev] keep full insertion-order history
   (newest first) for roster/outputs/all_routes, whose observable order
   must match the original list-based implementation exactly. *)
(* The fault plane (see Faults): when installed, every message send
   consults [fh_message] (drop / duplicate / deliver) and [fh_jitter]
   (extra latency). With no hooks installed the bus behaves — and
   traces — exactly as before, which the golden-trace tests pin down. *)
type fault_decision = Deliver | Drop | Duplicate

type fault_hooks = {
  fh_message : src:endpoint -> dst:endpoint -> fault_decision;
  fh_jitter : unit -> float;
}

type transport = {
  tr_send : src:endpoint -> dst:endpoint -> Value.t -> bool;
  tr_rename : old_instance:string -> new_instance:string -> fence:bool -> unit;
  tr_retx_wait : instance:string -> float;
      (* accumulated retransmission-timer wait towards an instance *)
}

type quarantined = {
  q_time : float;
  q_instance : string;
  q_reason : string;
  q_byte_size : int;
}

type detector_config = {
  dc_period : float;
  dc_timeout : float;
  dc_threshold : int;
}

let default_detector_config = { dc_period = 1.0; dc_timeout = 3.0; dc_threshold = 2 }

exception Controller_crash

(* How a value reached an input queue: [Fresh] is a first-time delivery
   (a routed message or the reliable layer's frame arrival), [Transfer] a
   requeue of something already delivered once (a replacement's
   [copy_queue]). The model checker's exactly-once monitor counts only
   [Fresh]. *)
type delivery_kind = Fresh | Transfer

type t = {
  engine : Engine.t;
  trace : Trace.t;
  bus_params : params;
  bus_hosts : host list;
  programs : (string, Dr_interp.Cache.artifact) Hashtbl.t;
  mutable procs_rev : process list;
  live : (string, process) Hashtbl.t;
  mutable routes_rev : (endpoint * endpoint) list;
  route_index : (endpoint, endpoint list) Hashtbl.t;
  mutable fault_hooks : fault_hooks option;
  down_hosts : (string, unit) Hashtbl.t;
  mutable transport : transport option;
  mutable activity_hook : (string -> unit) option;
  corrupt_images : (string, unit) Hashtbl.t;
  mutable bus_metrics : Metrics.t option;
  (* the delivery batches, plus traffic counts the hot path bumps as
     plain ints (no labels, no hashing) and [domain_stats] and the
     collectors read *)
  batches_open : (float, batch) Hashtbl.t;
  mutable last_batch : batch;  (* the batch last opened or found *)
  mutable spare_batches : batch list;
  mutable in_flight : int;  (* messages batched and not yet drained *)
  mutable routed : int;  (* per-destination sends *)
  mutable delivered : int;  (* enqueues into an input queue *)
  mutable batches : int;  (* delivery batches drained *)
  mutable batched : int;  (* messages carried by those batches *)
  mutable routes_version : int;
  (* durable control plane (see Journal/Recovery in dr_reconfig): the
     write-ahead log the journal appends to, plus the controller fault
     model — a counter of control-log appends and an optional armed
     crash point. With no WAL attached nothing here is ever consulted,
     so the golden traces are untouched. *)
  mutable bus_wal : Dr_wal.Wal.t option;
  mutable ctl_appends : int;
  mutable ctl_crash_at : int option;
  mutable ctl_down : bool;
  mutable ctl_next_sid : int;
  mutable ctl_open : int;  (* scripts begun and not yet committed/aborted *)
  (* drain-aware routing: replica siblings and the members currently
     draining. Both empty outside a rolling replacement, so delivery
     never consults them there (golden traces untouched). *)
  drain_members : (string, string array) Hashtbl.t;
  draining : (string, unit) Hashtbl.t;
  mutable drain_cursor : int;
  (* failure-detector tunables for detectors started on this bus *)
  mutable det_config : detector_config;
  mutable spawn_gen : int;  (* next spawn generation number *)
  (* the process whose quantum is running, [no_process] between quanta
     (quanta never nest: nothing steps the engine from inside one). Only
     a quantum steps a machine, so [bus_io] acts on this process. A
     machine killed by its own divulge callback runs the rest of that
     quantum, so [kill] must not release it yet. *)
  mutable running : process;
  bus_io : Dr_interp.Io_intf.t;  (* every machine's io *)
  (* model-checker observation point: called on every successful enqueue
     into an input queue. Passive — never schedules, never traces. *)
  mutable delivery_obs :
    (dst:endpoint -> kind:delivery_kind -> Value.t -> unit) option;
}

(* Metrics are strictly passive: these helpers never schedule events,
   never touch the trace, and never draw from the PRNG, so attaching a
   registry cannot perturb the simulation. *)
let m_incr t ?labels ?by name =
  match t.bus_metrics with
  | Some r -> Metrics.incr r ?labels ?by name
  | None -> ()

(* Sampled gauges: state that lives in bus structures (queue depths,
   instance count) is read at snapshot time by a collector rather than
   written through on every mutation. *)
let install_collectors t registry =
  Metrics.register_collector registry (fun r ->
      Metrics.set_gauge r "bus.live_instances"
        (float_of_int (Hashtbl.length t.live));
      Hashtbl.iter
        (fun instance p ->
          List.iter
            (fun q ->
              Metrics.set_gauge r "bus.queue_depth"
                ~labels:[ ("instance", instance); ("iface", q.q_iface) ]
                (float_of_int q.q_len))
            p.p_queues)
        t.live;
      (* the send and delivery paths bump plain counters; surface them,
         and the messages parked in batches, only at snapshot time
         (model-checking mode parks nothing: each message is its own
         event) *)
      Metrics.set_gauge r "bus.in_flight" (float_of_int t.in_flight);
      Metrics.set_gauge r "bus.routed" (float_of_int t.routed);
      Metrics.set_gauge r "bus.delivered" (float_of_int t.delivered);
      Metrics.set_gauge r "bus.batches" (float_of_int t.batches))

let set_metrics t registry =
  t.bus_metrics <- Some registry;
  install_collectors t registry

let metrics t = t.bus_metrics

let vacant () = ()

let no_batch =
  { b_due = nan; b_dests = [||]; b_values = [||]; b_woken = [||]; b_len = 0;
    b_drain = vacant }

(* What [t.running] holds between quanta: a process never registered
   and never run. *)
let no_process =
  { p_instance = ""; p_module = ""; p_gen = -1;
    p_host = { host_name = ""; arch = Dr_state.Arch.x86_64 }; p_spec = None;
    p_machine =
      Machine.create ~io:(Dr_interp.Io_intf.null ())
        { Dr_lang.Ast.module_name = ""; globals = []; procs = [] };
    p_queues = []; p_outputs = []; p_divulged = []; p_on_divulge = None;
    p_alive = false; p_scheduled = false; p_started = 0.0; p_ended = None;
    p_out_memo = None; p_wake = vacant }

(* ------------------------------------------------------- input queues *)

(* Append, doubling a full buffer (oldest value first). A delivery into
   a queue with room stores one value and allocates nothing. *)
let queue_push q v =
  let cap = Array.length q.q_buf in
  if q.q_len = cap then begin
    let buf = Array.make (max 1 (2 * cap)) Value.Vnull in
    for i = 0 to q.q_len - 1 do
      buf.(i) <- q.q_buf.((q.q_head + i) land (cap - 1))
    done;
    q.q_buf <- buf;
    q.q_head <- 0
  end;
  q.q_buf.((q.q_head + q.q_len) land (Array.length q.q_buf - 1)) <- v;
  q.q_len <- q.q_len + 1

(* The oldest value of a non-empty queue. *)
let queue_pop q =
  let v = q.q_buf.(q.q_head) in
  q.q_buf.(q.q_head) <- Value.Vnull;
  q.q_head <- (q.q_head + 1) land (Array.length q.q_buf - 1);
  q.q_len <- q.q_len - 1;
  v

(* Oldest first. *)
let queue_to_list q =
  let mask = Array.length q.q_buf - 1 in
  List.init q.q_len (fun i -> q.q_buf.((q.q_head + i) land mask))

(* Pop every value: the buffer stays for the values to come. *)
let queue_clear q =
  while q.q_len > 0 do
    ignore (queue_pop q : Value.t)
  done

(* Messages waiting in all of [p]'s queues. *)
let queued p = List.fold_left (fun acc q -> acc + q.q_len) 0 p.p_queues

let engine t = t.engine
let trace t = t.trace
let now t = Engine.now t.engine
let params t = t.bus_params
let hosts t = t.bus_hosts

let find_host t name =
  List.find_opt (fun h -> String.equal h.host_name name) t.bus_hosts

let record t ev = Trace.record t.trace ~time:(now t) ev

(* invariant: [t.live] holds exactly the processes with [p_alive];
   [kill] removes its entry, so halted/crashed machines stay findable
   (they are alive-but-stopped, as before). *)
let find_proc t instance = Hashtbl.find_opt t.live instance

(* ---------------------------------------------- durable control plane *)

let set_wal t w = t.bus_wal <- Some w
let wal t = t.bus_wal
let controller_down t = t.ctl_down
let ctl_appends t = t.ctl_appends

(* Arm a single-shot controller crash: the controller dies immediately
   after its [after]-th control-log append completes (record durable,
   bus operation applied) — the sharpest point for recovery, since every
   logged record's operation has taken effect and undo is exact. The
   engine guard swallows the unwind so the rest of the fleet keeps
   running: a dead controller does not stop the application. *)
let arm_ctl_crash t ~after =
  t.ctl_crash_at <- Some after;
  Engine.set_guard t.engine (function Controller_crash -> true | _ -> false);
  record t (E.Ctl_crash_armed after)

let ctl_tick t =
  t.ctl_appends <- t.ctl_appends + 1;
  match t.ctl_crash_at with
  | Some n when t.ctl_appends >= n ->
    t.ctl_crash_at <- None;
    t.ctl_down <- true;
    record t (E.Ctl_crashed t.ctl_appends);
    raise Controller_crash
  | _ -> ()

let recover_controller t =
  if t.ctl_down then begin
    t.ctl_down <- false;
    t.ctl_open <- 0;  (* whatever was open died with the controller *)
    record t E.Ctl_restarted
  end

let ctl_scripts_open t = t.ctl_open
let ctl_script_opened t = t.ctl_open <- t.ctl_open + 1
let ctl_script_closed t = t.ctl_open <- max 0 (t.ctl_open - 1)

let next_script_id t =
  t.ctl_next_sid <- t.ctl_next_sid + 1;
  t.ctl_next_sid

let note_script_id t sid = t.ctl_next_sid <- max t.ctl_next_sid sid

(* --------------------------------------------------------------- faults *)

let set_fault_hooks t hooks = t.fault_hooks <- Some hooks
let clear_fault_hooks t = t.fault_hooks <- None

(* hashes nothing while every host is up *)
let host_is_down t name =
  Hashtbl.length t.down_hosts > 0 && Hashtbl.mem t.down_hosts name

(* ----------------------------------------------------------- transport *)

(* A transport intercepts [route_message]'s per-destination sends (the
   reliable-delivery layer installs one); [None] is the plain
   fire-and-forget bus, byte-for-byte. *)
let set_transport t transport = t.transport <- Some transport
let has_transport t = Option.is_some t.transport

(* How long the reliable layer's retransmission timers have kept frames
   towards [instance] waiting. 0 without a transport. The drain phase of
   a reconfiguration samples this before and after quiescing, separating
   "waiting for the module to reach a point" from "waiting for the
   reliable layer to redeliver" in the disruption decomposition. *)
let transport_retx_wait t ~instance =
  match t.transport with None -> 0.0 | Some tr -> tr.tr_retx_wait ~instance

let transport_rename t ~old_instance ~new_instance ~fence =
  match t.transport with
  | None -> ()
  | Some tr -> tr.tr_rename ~old_instance ~new_instance ~fence

(* Failure detectors subscribe here: called with the sending instance
   every time it emits a message. No trace entry — liveness observation
   must not perturb the golden traces. *)
let on_activity t hook = t.activity_hook <- hook

(* The model checker subscribes here. Like [on_activity], strictly
   passive observation. *)
let set_delivery_observer t obs = t.delivery_obs <- obs

let notify_delivery t ~dst ~kind value =
  match t.delivery_obs with
  | None -> ()
  | Some obs -> obs ~dst ~kind value

(* -------------------------------------------------- image quarantine *)

let arm_image_corruption t ~instance =
  Hashtbl.replace t.corrupt_images instance ();
  record t (E.Corruption_armed instance)

let consume_image_corruption t ~instance =
  if Hashtbl.mem t.corrupt_images instance then begin
    Hashtbl.remove t.corrupt_images instance;
    record t (E.Corruption_injected instance);
    true
  end
  else false

let quarantine_image t ~instance ~reason ~byte_size =
  m_incr t ~labels:[ ("instance", instance) ] "reconfig.quarantined";
  record t (E.Quarantined { instance; bytes = byte_size; reason })

(* the trace is the quarantine log *)
let quarantined t =
  List.filter_map
    (fun (time, ev) ->
      match ev with
      | E.Quarantined { instance; bytes; reason } ->
        Some
          { q_time = time; q_instance = instance; q_reason = reason;
            q_byte_size = bytes }
      | _ -> None)
    (Trace.events t.trace)

let crash_process t ~instance ~reason =
  match find_proc t instance with
  | None -> record t (E.Crash_ignored instance)
  | Some p -> (
    match Machine.status p.p_machine with
    | Machine.Halted | Machine.Crashed _ -> ()
    | _ ->
      Machine.force_crash p.p_machine reason;
      record t (E.Crashed { instance = p.p_instance; reason }))

let crash_host t ~host =
  if host_is_down t host then
    record t (E.Host_crash_ignored host)
  else begin
    Hashtbl.replace t.down_hosts host ();
    record t (E.Host_crashed host);
    List.iter
      (fun p ->
        if p.p_alive && String.equal p.p_host.host_name host then begin
          crash_process t ~instance:p.p_instance
            ~reason:(Printf.sprintf "host %s crashed" host);
          let dropped = queued p in
          List.iter queue_clear p.p_queues;
          if dropped > 0 then
            record t
              (E.Host_crash_lost { instance = p.p_instance; count = dropped })
        end)
      (List.rev t.procs_rev)
  end

let recover_host t ~host =
  if host_is_down t host then begin
    Hashtbl.remove t.down_hosts host;
    record t (E.Host_recovered host)
  end
  else record t (E.Host_recovery_ignored host)

(* ------------------------------------------------------------ programs *)

let register_prepared t (artifact : Dr_interp.Cache.artifact) =
  Hashtbl.replace t.programs artifact.a_program.module_name artifact

let register_program t (program : Dr_lang.Ast.program) =
  (* Typecheck + lower + resolve through the content-keyed cache:
     re-registering the same module text (retries, restarts, repeated
     deployments) reuses one checked, compiled artifact, whose program
     equals this one (the key covers the whole AST). *)
  match Dr_interp.Cache.prepare program with
  | Error errors ->
    Error
      (Fmt.str "%s does not typecheck: %a" program.module_name
         (Fmt.list ~sep:(Fmt.any "; ") Dr_lang.Typecheck.pp_error)
         errors)
  | Ok artifact ->
    register_prepared t artifact;
    Ok ()

let registered_program t name =
  Option.map
    (fun (a : Dr_interp.Cache.artifact) -> a.a_program)
    (Hashtbl.find_opt t.programs name)

let registered_modules t =
  List.sort String.compare
    (Hashtbl.fold (fun name _ acc -> name :: acc) t.programs [])

(* ----------------------------------------------------------- scheduling *)

let latency t src_host dst_host =
  if String.equal src_host.host_name dst_host.host_name then
    t.bus_params.local_latency
  else t.bus_params.remote_latency

(* Event labels for the model checker: built only in MC mode, so the
   production hot path never pays for the route scan, nor for the
   optional argument's box (labels are inert there anyway). A quantum
   may run controller code — a divulge callback fires inside the
   target's quantum — so whenever a script is open or a callback is
   armed the label degrades to global (touch = [], dependent with
   everything). Otherwise a quantum touches its own instance plus every
   instance its out-routes can reach, which over-approximates the
   messages it may send. *)
let quantum_label t p =
  if t.ctl_open > 0 || Option.is_some p.p_on_divulge then
    Engine.label ~info:("quantum " ^ p.p_instance) "quantum"
  else
    let out =
      List.filter_map
        (fun ((si, _), (di, _)) ->
          if String.equal si p.p_instance then Some di else None)
        t.routes_rev
    in
    Engine.label
      ~touch:(p.p_instance :: out)
      ~info:("quantum " ^ p.p_instance) "quantum"

(* A delivery touches its destination — or, when the destination belongs
   to a drain group, any member the redirect may choose. (A delivery
   whose destination died in flight re-resolves the routes; route
   mutations are controller transitions, which are global, so the
   approximation is benign there.) *)
let deliver_label t ~dst value =
  let inst = fst dst in
  let touch =
    match Hashtbl.find_opt t.drain_members inst with
    | Some members -> Array.to_list members
    | None -> [ inst ]
  in
  Engine.label ~touch
    ~info:
      (Printf.sprintf "deliver %s.%s %s" inst (snd dst) (Value.to_string value))
    "deliver"

let net_label ~src ~dst =
  Engine.label
    ~touch:[ fst src; fst dst ]
    ~info:
      (Printf.sprintf "net %s.%s -> %s.%s" (fst src) (snd src) (fst dst)
         (snd dst))
    "net"

(* Schedule one of [p]'s thunks, labelled in model-checking mode. *)
let schedule_proc t p ~delay thunk =
  if Engine.mc_enabled t.engine then
    Engine.schedule ~label:(quantum_label t p) t.engine ~delay thunk
  else Engine.schedule t.engine ~delay thunk

(* What a removed instance keeps is its spawn-history record: name,
   module, host, times, outputs, and its machine's status, counters,
   stamps and globals, which [roster], [outputs] and the timeline read.
   Its execution state, queues, parked images and memos go. *)
let release p =
  Machine.retire p.p_machine;
  p.p_queues <- [];
  p.p_divulged <- [];
  p.p_out_memo <- None

let end_quantum t p =
  t.running <- no_process;
  if not p.p_alive then release p

let rec schedule_quantum t p ~delay =
  if p.p_alive && not p.p_scheduled then begin
    p.p_scheduled <- true;
    schedule_proc t p ~delay (fun () -> run_quantum t p)
  end

and run_quantum t p =
  p.p_scheduled <- false;
  (* a quantum scheduled before the machine stopped (e.g. an injected
     crash between scheduling and firing) must not re-record the halt or
     crash that was already traced when the status changed *)
  let already_stopped =
    match Machine.status p.p_machine with
    | Machine.Halted | Machine.Crashed _ -> true
    | _ -> false
  in
  if p.p_alive && not already_stopped then begin
    (* the machine's budgeted loop pays one status check per instruction
       instead of a [step] call, and dispatches fused runs that fit the
       quantum *)
    t.running <- p;
    let executed =
      match Machine.exec_budget p.p_machine t.bus_params.quantum with
      | n -> n
      | exception e ->
        (* a controller crash unwinding out of a divulge callback *)
        end_quantum t p;
        raise e
    in
    (* the guard keeps the label list from being allocated per quantum
       when no registry is attached — this is the hottest call site *)
    if Option.is_some t.bus_metrics then
      m_incr t ~labels:[ ("instance", p.p_instance) ] ~by:executed
        "interp.instructions";
    let cost = float_of_int executed *. t.bus_params.instr_cost in
    (match Machine.status p.p_machine with
    | Machine.Ready -> schedule_quantum t p ~delay:(Float.max cost t.bus_params.instr_cost)
    | Machine.Sleeping duration -> schedule_wake t p ~delay:(cost +. duration)
    | Machine.Blocked_read _ | Machine.Blocked_decode ->
      (* parked: woken by message/state arrival *)
      ()
    | Machine.Halted -> record t (E.Halted p.p_instance)
    | Machine.Crashed message ->
      record t (E.Crashed { instance = p.p_instance; reason = message }));
    end_quantum t p
  end

and schedule_wake t p ~delay = schedule_proc t p ~delay p.p_wake

(* Run a machine that a wake or a delivery just made ready. Like the
   send path, this picks its granularity from [Engine.mc_enabled]. In
   model-checking mode the quantum is its own delay-0 event, so the
   explorer can interleave it with everything else due at this instant.
   In production it runs right away, saving an event-queue pop per wake;
   that order is one of the interleavings the explorer visits. *)
and resume t p =
  if Engine.mc_enabled t.engine then schedule_quantum t p ~delay:0.0
  else if not p.p_scheduled then run_quantum t p

(* What [p_wake] runs: the end of a sleep, or a reader a delivery made
   ready (for which [set_ready] does nothing). *)
let wake_proc t p =
  if p.p_alive then begin
    Machine.set_ready p.p_machine;
    resume t p
  end

(* -------------------------------------------------------------- routes *)

let endpoint_equal (a1, a2) (b1, b2) = String.equal a1 b1 && String.equal a2 b2

(* per-source index buckets are kept in insertion order, so
   [routes_from] returns destinations exactly as the flat-list filter
   did — message fan-out order (and thus the trace) is unchanged *)
let index_bucket t src =
  Option.value ~default:[] (Hashtbl.find_opt t.route_index src)

let add_route t ~src ~dst =
  let bucket = index_bucket t src in
  if not (List.exists (endpoint_equal dst) bucket) then begin
    t.routes_version <- t.routes_version + 1;
    Hashtbl.replace t.route_index src (bucket @ [ dst ]);
    t.routes_rev <- (src, dst) :: t.routes_rev;
    record t (E.Bind_added { src; dst })
  end

let del_route t ~src ~dst =
  t.routes_version <- t.routes_version + 1;
  (match List.filter (fun d -> not (endpoint_equal d dst)) (index_bucket t src) with
  | [] -> Hashtbl.remove t.route_index src
  | bucket -> Hashtbl.replace t.route_index src bucket);
  t.routes_rev <-
    List.filter
      (fun (s, d) -> not (endpoint_equal s src && endpoint_equal d dst))
      t.routes_rev;
  record t (E.Bind_deleted { src; dst })

let routes_from t src = index_bucket t src

let routes_to t dst =
  List.rev
    (List.filter_map
       (fun (s, d) -> if endpoint_equal d dst then Some s else None)
       t.routes_rev)

let all_routes t = List.rev t.routes_rev

(* -------------------------------------------------------------- queues *)

(* [p]'s queue for [iface], made at the first touch, a read-only query
   included: [queue_contents] lists every interface touched. *)
let rec queue_in qs p iface =
  match qs with
  | q :: rest -> if String.equal q.q_iface iface then q else queue_in rest p iface
  | [] ->
    let q = { q_iface = iface; q_buf = [||]; q_head = 0; q_len = 0 } in
    p.p_queues <- q :: p.p_queues;
    q

let queue_of p iface = queue_in p.p_queues p iface

let pending_messages t (instance, iface) =
  match find_proc t instance with
  | None -> 0
  | Some p -> (queue_of p iface).q_len

(* ---------------------------------------------- drain-aware routing *)

let detector_config t = t.det_config

let set_detector_config t cfg =
  (* [not (x > 0.0)] refuses NaN too: a NaN period would schedule every
     beat at NaN and stop the clock *)
  if not (cfg.dc_period > 0.0 && Float.is_finite cfg.dc_period) then
    invalid_arg "set_detector_config: period must be positive and finite";
  if not (cfg.dc_timeout > 0.0 && Float.is_finite cfg.dc_timeout) then
    invalid_arg "set_detector_config: timeout must be positive and finite";
  if cfg.dc_threshold <= 0 then
    invalid_arg "set_detector_config: threshold must be positive";
  t.det_config <- cfg

let set_drain_group t ~members =
  let arr = Array.of_list members in
  List.iter (fun m -> Hashtbl.replace t.drain_members m arr) members

let mark_draining t ~instance =
  if not (Hashtbl.mem t.draining instance) then begin
    Hashtbl.replace t.draining instance ();
    record t (E.Drain_started instance)
  end

let clear_draining t ~instance =
  if Hashtbl.mem t.draining instance then begin
    Hashtbl.remove t.draining instance;
    record t (E.Drain_ended instance)
  end

let is_draining t ~instance = Hashtbl.mem t.draining instance

let draining_instances t =
  List.sort String.compare
    (Hashtbl.fold (fun k () acc -> k :: acc) t.draining [])

(* Admitting = present, machine not stopped, host up, not draining. *)
let drain_admitting t instance =
  match find_proc t instance with
  | None -> false
  | Some p -> (
    (not (host_is_down t p.p_host.host_name))
    && (not (Hashtbl.mem t.draining instance))
    &&
    match Machine.status p.p_machine with
    | Machine.Halted | Machine.Crashed _ -> false
    | _ -> true)

let drain_alive t instance =
  match find_proc t instance with
  | None -> false
  | Some p -> (
    (not (host_is_down t p.p_host.host_name))
    &&
    match Machine.status p.p_machine with
    | Machine.Halted | Machine.Crashed _ -> false
    | _ -> true)

let resolve_drain t ~instance =
  if drain_admitting t instance then Some instance
  else
    match Hashtbl.find_opt t.drain_members instance with
    | None -> if drain_alive t instance then Some instance else None
    | Some members ->
      let n = Array.length members in
      let scan ok start =
        let rec pick i k =
          if k = 0 then None
          else
            let cand = members.(i mod n) in
            if (not (String.equal cand instance)) && ok cand then Some cand
            else pick (i + 1) (k - 1)
        in
        pick start n
      in
      t.drain_cursor <- t.drain_cursor + 1;
      (match scan (drain_admitting t) t.drain_cursor with
      | Some _ as r -> r
      | None ->
        (* No admitting sibling. Prefer the addressed member itself if it
           is merely draining (it keeps serving what it must), but when
           the group shrank mid-drain — the addressed member was killed
           between the rotation and admission — fall through to any
           sibling that is still alive even if draining: shedding the
           request while a live member exists loses it outright. Found by
           the model checker (see test_mc). *)
        if drain_alive t instance then Some instance
        else scan (drain_alive t) t.drain_cursor)

(* Consulted on the delivery paths: only when at least one member is
   draining, so fault-free runs never pay (or perturb) anything. *)
let drain_redirect t dst =
  if Hashtbl.length t.draining = 0 then dst
  else
    let instance, iface = dst in
    if not (Hashtbl.mem t.draining instance) then dst
    else
      match resolve_drain t ~instance with
      | Some target when not (String.equal target instance) ->
        m_incr t
          ~labels:[ ("from", instance); ("to", target) ]
          "bus.drain_redirect";
        record t (E.Drain_redirect { instance; iface; target });
        (target, iface)
      | Some _ | None -> dst

(* Append a value to a live destination's input queue. [true] iff that
   woke a reader blocked on the interface; the caller decides when the
   reader's quantum runs. *)
let enqueue t kind p ~dst value =
  notify_delivery t ~dst ~kind value;
  queue_push (queue_of p (snd dst)) value;
  match Machine.status p.p_machine with
  | Machine.Blocked_read blocked_iface when String.equal blocked_iface (snd dst)
    ->
    Machine.set_ready p.p_machine;
    true
  | _ -> false

let count_delivered t = t.delivered <- t.delivered + 1

let deliver_k t kind ~dst value =
  let dst = drain_redirect t dst in
  let instance = fst dst in
  match find_proc t instance with
  | None ->
    m_incr t ~labels:[ ("instance", instance) ] "bus.dropped";
    record t (E.Dead_destination dst)
  | Some p ->
    if host_is_down t p.p_host.host_name then
      record t (E.Host_down_delivery { dst; host = p.p_host.host_name })
    else begin
      count_delivered t;
      if enqueue t kind p ~dst value then schedule_quantum t p ~delay:0.0
    end

let deliver t ~dst value = deliver_k t Fresh ~dst value

let inject t ~dst value = deliver t ~dst value

let copy_queue t ~src ~dst =
  match find_proc t (fst src) with
  | None -> ()
  | Some sp ->
    let q = queue_of sp (snd src) in
    let moved = q.q_len in
    (* drain first: when [dst] is (or routes back into) [src], delivery
       appends to the very queue being copied *)
    let values = queue_to_list q in
    queue_clear q;
    List.iter (fun v -> deliver_k t Transfer ~dst v) values;
    record t (E.Queue_copied { src; dst; count = moved })

let take_queue t ep =
  match find_proc t (fst ep) with
  | None -> []
  | Some p ->
    let q = queue_of p (snd ep) in
    let values = queue_to_list q in
    queue_clear q;
    values

let peek_queue t ep =
  match find_proc t (fst ep) with
  | None -> []
  | Some p -> queue_to_list (queue_of p (snd ep))

let drop_queue t ep =
  match find_proc t (fst ep) with
  | None -> ()
  | Some p ->
    let q = queue_of p (snd ep) in
    let dropped = q.q_len in
    queue_clear q;
    record t (E.Queue_removed { ep; count = dropped })

(* ------------------------------------------------------------- send *)

(* Resolve a memo entry: its process while that is alive (no hashing),
   else the by-name table, re-warming the entry. A kill clears
   [p_alive], so an entry can never resolve to a dead instance, nor miss
   one re-spawned under the same name. *)
let resolve_dest t (de : dest_entry) =
  match de.de_proc with
  | Some p when p.p_alive -> de.de_proc
  | _ ->
    let found = find_proc t (fst de.de_dst) in
    de.de_proc <- found;
    found

(* Rebuild the sender's out-route memo when the route table has moved
   since it was cut (or the interface changed). [de_peers] is the
   send-time fan-out set the redirect logic needs, identical to a fresh
   [routes_from] because any add/del bumps [routes_version]. *)
let cut_out_memo t p iface =
  let src = (p.p_instance, iface) in
  let peers = routes_from t src in
  let memo =
    { om_iface = iface;
      om_version = t.routes_version;
      om_dests =
        Array.of_list
          (List.map
             (fun dst ->
               { de_src = src; de_dst = dst; de_peers = peers;
                 de_proc = find_proc t (fst dst) })
             peers) }
  in
  p.p_out_memo <- Some memo;
  memo

let out_memo_of t p iface =
  match p.p_out_memo with
  | Some m when m.om_version = t.routes_version && String.equal m.om_iface iface
    ->
    m
  | _ -> cut_out_memo t p iface

(* Fills a batch's vacant slots. *)
let no_dest =
  { de_src = ("", ""); de_dst = ("", ""); de_peers = []; de_proc = None }

(* Deliver one routed message. A live destination gets the value; if
   that woke a reader blocked on the interface, the reader's wake thunk
   comes back for the caller to run, else [vacant]. Every failure case
   keeps its trace wording. *)
let deliver_routed t de value =
  match resolve_dest t de with
  | None ->
    (* The destination died in flight (a reconfiguration replaced it).
       The paper's bus applies rebinding commands atomically, so the
       message follows the new bindings, but only the routes added since
       the send: re-fanning out to every current route would hand a
       duplicate to each surviving peer of a multicast binding. *)
    (match
       List.filter
         (fun d -> not (List.exists (endpoint_equal d) de.de_peers))
         (routes_from t de.de_src)
     with
    | [] -> record t (E.In_flight_lost de.de_src)
    | dsts -> List.iter (fun dst -> deliver t ~dst value) dsts);
    vacant
  | Some _
    when Hashtbl.length t.draining > 0 && Hashtbl.mem t.draining (fst de.de_dst)
    ->
    (* draining member: [deliver] redirects to an admitting sibling (only
       drain windows pay this) *)
    deliver t ~dst:de.de_dst value;
    vacant
  | Some p ->
    if host_is_down t p.p_host.host_name then begin
      record t
        (E.Host_down_delivery { dst = de.de_dst; host = p.p_host.host_name });
      vacant
    end
    else begin
      count_delivered t;
      if enqueue t Fresh p ~dst:de.de_dst value then p.p_wake else vacant
    end

(* Deliver a batch in send order (per-route FIFO). Every message is
   enqueued first, then each woken reader resumes once, in wake order,
   so a reader sees all of its same-instant messages in one quantum.
   The batch leaves the open table before any of that, so a message
   sent meanwhile for this instant opens a batch of its own; it is
   spare again once every reader has run. *)
let deliver_batch t b =
  if not (Float.is_nan b.b_due) then begin
    Hashtbl.remove t.batches_open b.b_due;
    b.b_due <- nan;
    t.in_flight <- t.in_flight - b.b_len
  end;
  let size = b.b_len in
  t.batches <- t.batches + 1;
  t.batched <- t.batched + size;
  (match t.bus_metrics with
  | Some r -> Metrics.observe r "bus.batch_size" (float_of_int size)
  | None -> ());
  let woken = ref 0 in
  for i = 0 to size - 1 do
    let wake = deliver_routed t b.b_dests.(i) b.b_values.(i) in
    if wake != vacant then begin
      b.b_woken.(!woken) <- wake;
      incr woken
    end
  done;
  Array.fill b.b_dests 0 size no_dest;
  Array.fill b.b_values 0 size Value.Vnull;
  b.b_len <- 0;
  for j = 0 to !woken - 1 do
    let wake = b.b_woken.(j) in
    b.b_woken.(j) <- vacant;
    wake ()
  done;
  t.spare_batches <- b :: t.spare_batches

(* A spare batch, or a new one, for [due] (NaN: a batch the open table
   does not hold). *)
let take_batch t ~due =
  match t.spare_batches with
  | b :: rest ->
    t.spare_batches <- rest;
    b.b_due <- due;
    b
  | [] ->
    let b =
      { b_due = due; b_dests = [||]; b_values = [||]; b_woken = [||];
        b_len = 0; b_drain = vacant }
    in
    b.b_drain <- (fun () -> deliver_batch t b);
    b

let batch_add b de value =
  let n = b.b_len in
  if n = Array.length b.b_dests then begin
    let capacity = max 8 (2 * n) in
    let dests = Array.make capacity no_dest in
    let values = Array.make capacity Value.Vnull in
    Array.blit b.b_dests 0 dests 0 n;
    Array.blit b.b_values 0 values 0 n;
    b.b_dests <- dests;
    b.b_values <- values;
    b.b_woken <- Array.make capacity vacant
  end;
  b.b_dests.(n) <- de;
  b.b_values.(n) <- value;
  b.b_len <- n + 1

(* The open batch for [due], or a new one with its drain event. *)
let open_batch t due =
  match Hashtbl.find t.batches_open due with
  | b ->
    t.last_batch <- b;
    b
  | exception Not_found ->
    let b = take_batch t ~due in
    Hashtbl.replace t.batches_open due b;
    t.last_batch <- b;
    Engine.schedule_at t.engine ~time:due b.b_drain;
    b

(* Queue one routed message for delivery [delay] from now. It joins the
   batch for its delivery instant, and only a batch's first message
   schedules an engine event; in model-checking mode it is a batch, and
   an event, of its own. *)
let push t de value ~delay =
  let due = Engine.now t.engine +. delay in
  if Engine.mc_enabled t.engine then begin
    let b = take_batch t ~due:nan in
    batch_add b de value;
    Engine.schedule_at
      ~label:(deliver_label t ~dst:de.de_dst value)
      t.engine ~time:due b.b_drain
  end
  else begin
    let b = t.last_batch in
    let b = if b.b_due = due then b else open_batch t due in
    batch_add b de value;
    t.in_flight <- t.in_flight + 1
  end

(* Run [send t a b ~delay] as the fault plane decides: once, not at all,
   or twice. The draw order (jitter, then the loss/duplicate decision) is
   what seeded fault plans replay. Callers pass a top-level [send], so a
   hop allocates no closure. *)
let with_faults t ~src ~dst ~delay send a b =
  match t.fault_hooks with
  | None -> send t a b ~delay
  | Some hooks -> (
    let delay = delay +. hooks.fh_jitter () in
    match hooks.fh_message ~src ~dst with
    | Deliver -> send t a b ~delay
    | Drop -> record t (E.Injected_loss { src; dst })
    | Duplicate ->
      record t (E.Injected_duplicate { src; dst });
      send t a b ~delay;
      send t a b ~delay)

(* One destination of a send: the transport's, if it takes the message,
   else a timed hop through the fault plane. *)
let route_one t p de value =
  t.routed <- t.routed + 1;
  let handled =
    match t.transport with
    | Some tr -> tr.tr_send ~src:de.de_src ~dst:de.de_dst value
    | None -> false
  in
  if not handled then begin
    let dst_host =
      match resolve_dest t de with Some dp -> dp.p_host | None -> p.p_host
    in
    with_faults t ~src:de.de_src ~dst:de.de_dst
      ~delay:(latency t p.p_host dst_host) push de value
  end

(* The send path: the memoized fan-out, each destination's process held
   by its memo entry, and per-hop batching. *)
let route_live t p iface value =
  (match t.activity_hook with
  | Some hook -> hook p.p_instance
  | None -> ());
  let dests = (out_memo_of t p iface).om_dests in
  if Array.length dests = 0 then begin
    m_incr t ~labels:[ ("instance", p.p_instance) ] "bus.dropped";
    record t (E.Unbound (p.p_instance, iface))
  end
  else
    for i = 0 to Array.length dests - 1 do
      route_one t p dests.(i) value
    done

(* A machine killed by its own divulge callback runs out that quantum,
   but it is no longer live: what it sends is discarded. *)
let route_message t p iface value =
  if p.p_alive then route_live t p iface value
  else begin
    m_incr t ~labels:[ ("instance", p.p_instance) ] "bus.dropped";
    record t (E.Dead_sender (p.p_instance, iface))
  end

let hop t (src, dst) k ~delay =
  if Engine.mc_enabled t.engine then
    Engine.schedule ~label:(net_label ~src ~dst) t.engine ~delay k
  else Engine.schedule t.engine ~delay k

(* A raw timed hop between two endpoints, subject to the fault hooks but
   carrying a callback rather than a queued value — the primitive the
   reliable layer's frames, acks and the detector's heartbeats ride on.
   [k] runs at the receiving end after the (possibly jittered) latency;
   a [Drop] decision consumes a PRNG draw and records the loss exactly
   like an application message. *)
let transmit t ~src ~dst k =
  let host_of (instance, _) =
    Option.map (fun p -> p.p_host) (find_proc t instance)
  in
  let delay =
    match (host_of src, host_of dst) with
    | Some a, Some b -> latency t a b
    | _ -> t.bus_params.local_latency
  in
  with_faults t ~src ~dst ~delay hop (src, dst) k

(* Hand a value straight to a destination queue with no latency, no
   fault decision and no trace on success: the reliable layer calls this
   at frame-arrival time, after [transmit] has already charged the hop.
   Returns [false] when the destination is gone or its host is down, so
   the caller can withhold the ack and let retransmission recover. *)
let deliver_now t ~dst value =
  match find_proc t (fst dst) with
  | None -> false
  | Some p ->
    if host_is_down t p.p_host.host_name then false
    else begin
      count_delivered t;
      if enqueue t Fresh p ~dst value then schedule_quantum t p ~delay:0.0;
      true
    end

(* ----------------------------------------------------------------- io *)

(* The bus has one io, and every machine runs over it: it acts on the
   process whose quantum is running. *)
let running t =
  let p = t.running in
  if p == no_process then invalid_arg "bus: io used outside a quantum";
  p

let io_read t iface =
  let q = queue_of (running t) iface in
  if q.q_len = 0 then None else Some (queue_pop q)

let io_print t line =
  let p = running t in
  p.p_outputs <- line :: p.p_outputs;
  record t (E.Print { instance = p.p_instance; line })

let io_encode t image =
  let p = running t in
  record t
    (E.Divulged
       { instance = p.p_instance;
         records = Image.depth image;
         bytes = Image.byte_size image });
  match p.p_on_divulge with
  | Some callback ->
    p.p_on_divulge <- None;
    callback image
  | None -> p.p_divulged <- p.p_divulged @ [ image ]

let create ?(params = default_params) ~hosts () =
  let rec t =
    { engine = Engine.create ();
      trace = Trace.create ();
      bus_params = params;
      bus_hosts = hosts;
      programs = Hashtbl.create 8;
      procs_rev = [];
      live = Hashtbl.create 64;
      routes_rev = [];
      route_index = Hashtbl.create 64;
      fault_hooks = None;
      down_hosts = Hashtbl.create 4;
      transport = None;
      activity_hook = None;
      corrupt_images = Hashtbl.create 4;
      bus_metrics = None;
      batches_open = Hashtbl.create 32;
      last_batch = no_batch;
      spare_batches = [];
      in_flight = 0;
      routed = 0;
      delivered = 0;
      batches = 0;
      batched = 0;
      routes_version = 0;
      bus_wal = None;
      ctl_appends = 0;
      ctl_crash_at = None;
      ctl_down = false;
      ctl_next_sid = 0;
      ctl_open = 0;
      drain_members = Hashtbl.create 4;
      draining = Hashtbl.create 4;
      drain_cursor = 0;
      det_config = default_detector_config;
      spawn_gen = 0;
      running = no_process;
      bus_io =
        { io_query = (fun iface -> (queue_of (running t) iface).q_len > 0);
          io_read = (fun iface -> io_read t iface);
          io_write = (fun iface value -> route_message t (running t) iface value);
          io_print = (fun line -> io_print t line);
          io_now = (fun () -> now t);
          io_encode = (fun image -> io_encode t image);
          io_decode = (fun () -> None)
            (* images arrive via [deposit_state], which feeds the machine
               directly; mh_decode blocks otherwise *) };
      delivery_obs = None }
  in
  if Metrics.enabled_from_env () then set_metrics t (Metrics.create ());
  t

(* -------------------------------------------------------------- spawn *)

(* Where a new instance may go: the name must be free and the host
   known and up. *)
let placement t ~instance ~host =
  if Option.is_some (find_proc t instance) then
    Error (Printf.sprintf "instance %s already exists" instance)
  else
    match find_host t host with
    | None -> Error (Printf.sprintf "unknown host %s" host)
    | Some _ when host_is_down t host ->
      Error (Printf.sprintf "host %s is down" host)
    | Some h -> Ok h

(* Build a process around [machine] and register it: the roster and the
   live table. *)
let register t ~instance ~module_name ~host ~spec machine =
  let gen = t.spawn_gen in
  t.spawn_gen <- t.spawn_gen + 1;
  let started = now t in
  let rec p =
    { p_instance = instance;
      p_module = module_name;
      p_gen = gen;
      p_host = host;
      p_spec = spec;
      p_machine = machine;
      p_queues = [];
      p_outputs = [];
      p_divulged = [];
      p_on_divulge = None;
      p_alive = true;
      p_scheduled = false;
      p_started = started;
      p_ended = None;
      p_out_memo = None;
      p_wake = (fun () -> wake_proc t p) }
  in
  t.procs_rev <- p :: t.procs_rev;
  Hashtbl.replace t.live instance p;
  p

let spawn t ~instance ~module_name ~host ?spec ?(status = "normal") () =
  match placement t ~instance ~host with
  | Error _ as e -> e
  | Ok h -> (
    match Hashtbl.find_opt t.programs module_name with
    | None -> Error (Printf.sprintf "module %s is not registered" module_name)
    | Some artifact ->
      let p =
        register t ~instance ~module_name ~host:h ~spec
          (Machine.create ~status_attr:status ~io:t.bus_io
             ~resolved:artifact.Dr_interp.Cache.a_resolved
             artifact.Dr_interp.Cache.a_program)
      in
      m_incr t ~labels:[ ("instance", instance) ] "bus.spawns";
      record t
        (E.Started { instance; module_name; host = h.host_name; status });
      schedule_quantum t p ~delay:0.0;
      Ok ())

let spawn_snapshot t ~of_instance ~instance ~host =
  match (find_proc t of_instance, placement t ~instance ~host) with
  | _, (Error _ as e) when Hashtbl.mem t.live instance -> e
  | None, _ -> Error (Printf.sprintf "no such instance %s" of_instance)
  | Some _, (Error _ as e) -> e
  | Some source, Ok h ->
    let p =
      register t ~instance ~module_name:source.p_module ~host:h
        ~spec:source.p_spec (Machine.clone source.p_machine ~io:t.bus_io)
    in
    record t (E.Snapshot_cloned { of_instance; instance; host = h.host_name });
    (* re-arm scheduling for whatever state the snapshot was in *)
    (match Machine.status p.p_machine with
    | Machine.Ready -> schedule_quantum t p ~delay:0.0
    | Machine.Sleeping duration -> schedule_wake t p ~delay:duration
    | Machine.Blocked_read _ | Machine.Blocked_decode ->
      ()  (* woken by message/state arrival *)
    | Machine.Halted | Machine.Crashed _ -> ());
    Ok ()

let kill t ~instance =
  match find_proc t instance with
  | None -> record t (E.Kill_ignored instance)
  | Some p ->
    p.p_alive <- false;
    p.p_ended <- Some (now t);
    Hashtbl.remove t.live instance;
    t.routes_version <- t.routes_version + 1;
    m_incr t ~labels:[ ("instance", instance) ] "bus.kills";
    record t (E.Removed instance);
    (* a divulge callback armed on a dead instance can never fire; keep
       it from lingering on the dead record *)
    if Option.is_some p.p_on_divulge then begin
      p.p_on_divulge <- None;
      record t (E.Removed_pending_divulge instance)
    end;
    let dropped = queued p in
    if dropped > 0 then
      record t (E.Removed_undelivered { instance; count = dropped });
    if p != t.running then release p

type roster_entry = {
  r_instance : string;
  r_module : string;
  r_host : string;
  r_status : Machine.status option;
  r_started : float;
  r_ended : float option;
  r_instrs : int;
}

let roster t =
  List.rev_map
    (fun p ->
      { r_instance = p.p_instance;
        r_module = p.p_module;
        r_host = p.p_host.host_name;
        r_status = (if p.p_alive then Some (Machine.status p.p_machine) else None);
        r_started = p.p_started;
        r_ended = p.p_ended;
        r_instrs = Machine.instr_count p.p_machine })
    t.procs_rev

let instances t =
  List.rev
    (List.filter_map
       (fun p -> if p.p_alive then Some p.p_instance else None)
       t.procs_rev)

let instance_host t ~instance =
  Option.map (fun p -> p.p_host.host_name) (find_proc t instance)

let instance_generation t ~instance =
  Option.map (fun p -> p.p_gen) (find_proc t instance)

(* Snapshot of an instance's input queues, sorted by interface — the
   model checker folds this into its state fingerprint. *)
let queue_contents t ~instance =
  match find_proc t instance with
  | None -> []
  | Some p ->
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.map (fun q -> (q.q_iface, queue_to_list q)) p.p_queues)

let instance_spec t ~instance =
  Option.bind (find_proc t instance) (fun p -> p.p_spec)

let instance_module t ~instance =
  Option.map (fun p -> p.p_module) (find_proc t instance)

let machine t ~instance = Option.map (fun p -> p.p_machine) (find_proc t instance)

let process_status t ~instance =
  Option.map (fun p -> Machine.status p.p_machine) (find_proc t instance)

let outputs t ~instance =
  (* history stays readable after an instance is removed; when a name was
     reused (replication restarts the original in place), prefer the live
     incarnation, then the most recent dead one — [procs_rev] is
     newest-first, so the first dead match is the most recent *)
  match find_proc t instance with
  | Some p -> List.rev p.p_outputs
  | None -> (
    match
      List.find_opt (fun p -> String.equal p.p_instance instance) t.procs_rev
    with
    | Some p -> List.rev p.p_outputs
    | None -> [])

let wake t ~instance =
  match find_proc t instance with
  | None -> record t (E.Wake_ignored_unknown instance)
  | Some p -> (
    match Machine.status p.p_machine with
    | Machine.Halted | Machine.Crashed _ ->
      (* set_ready is a no-op on a stopped machine; scheduling a quantum
         for it would be too — make the mismatch auditable instead *)
      record t (E.Wake_ignored_stopped instance)
    | _ ->
      Machine.set_ready p.p_machine;
      schedule_quantum t p ~delay:0.0)

let signal_reconfig t ~instance =
  match find_proc t instance with
  | None -> ()
  | Some p ->
    m_incr t ~labels:[ ("instance", instance) ] "reconfig.signals";
    record t (E.Signalled instance);
    Machine.deliver_signal p.p_machine

let on_divulge t ~instance callback =
  match find_proc t instance with
  | None ->
    (* idempotency parity with [wake]/[kill]: arming a callback on a
       removed instance is a quiet no-op, but an auditable one *)
    record t (E.Divulge_dead_discarded instance)
  | Some p -> (
    match p.p_divulged with
    | image :: rest ->
      p.p_divulged <- rest;
      callback image
    | [] -> (
      match Machine.status p.p_machine with
      | Machine.Halted | Machine.Crashed _ ->
        (* a stopped machine will never divulge; parking the callback
           would wait forever — discard it now, auditable *)
        record t (E.Divulge_stopped_discarded instance)
      | _ -> p.p_on_divulge <- Some callback))

let cancel_divulge t ~instance =
  match find_proc t instance with
  | None -> record t (E.Divulge_cancel_ignored instance)
  | Some p ->
    if Option.is_some p.p_on_divulge then begin
      p.p_on_divulge <- None;
      record t (E.Divulge_cancelled instance)
    end

let deposit_state t ~instance ?expect image =
  match find_proc t instance with
  | None ->
    record t (E.Image_dead_discarded instance)
  | Some p -> (
    match Machine.status p.p_machine with
    | Machine.Halted | Machine.Crashed _ ->
      record t (E.Image_stopped_discarded instance)
    | _ -> (
      match expect with
      | Some digest when not (Int64.equal digest (Image.digest image)) ->
        quarantine_image t ~instance
          ~reason:
            (Printf.sprintf "digest mismatch (expected %016Lx, got %016Lx)"
               digest (Image.digest image))
          ~byte_size:(Image.byte_size image)
      | _ ->
        m_incr t ~labels:[ ("instance", instance) ] "reconfig.state_deposits";
        record t (E.Deposited instance);
        Machine.feed_image p.p_machine image;
        schedule_quantum t p ~delay:0.0))

let run ?until ?max_events t = Engine.run ?until ?max_events t.engine

let run_while t ?(max_events = max_int) predicate =
  let fired = ref 0 in
  while predicate () && !fired < max_events && Engine.step t.engine do
    incr fired
  done

let quiescent t = Engine.pending t.engine = 0

(* -------------------------------------------------------------- domain *)

type domain_stats = { d_delivered : int; d_batches : int; d_batched : int }

let domain_stats t =
  [ { d_delivered = t.delivered; d_batches = t.batches; d_batched = t.batched } ]
