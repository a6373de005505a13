module Engine = Dr_sim.Engine
module Trace = Dr_sim.Trace
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

(* Send-path structures (see [Domain]): each process holds a
   generational handle into its broker domain's arena, plus a memo of
   its last-used out-route set with destinations pre-resolved to
   handles. The memo is versioned against [routes_version] (bumped on
   any route/roster change) and its handles are gen-checked on use, so
   a kill or replace can never leave a stale entry aliasing a reused
   slot — at worst the memo falls back to the by-name lookup and
   re-warms itself. *)
type dest_entry = { de_dst : endpoint; mutable de_handle : Domain.handle }

type out_memo = {
  om_iface : string;
  om_version : int;
  om_peers : endpoint list;  (* send-time fan-out set, for redirects *)
  om_dests : dest_entry array;
}

type process = {
  p_instance : string;
  p_module : string;
  p_gen : int;
      (* monotone spawn generation: virtual time can stand still across a
         kill-and-respawn of the same name, so a timestamp cannot tell
         the two incarnations apart — this counter can *)
  mutable p_host : host;
  p_spec : Dr_mil.Spec.module_spec option;
  p_machine : Machine.t;
  p_queues : (string, Value.t Queue.t) Hashtbl.t;
  (* memo of the last queue handed out: a machine polls/reads the same
     interface repeatedly, so io_query/io_read skip the hash lookup *)
  mutable p_last_queue : (string * Value.t Queue.t) option;
  mutable p_outputs : string list;  (* reverse order *)
  mutable p_divulged : Image.t list;  (* queue of divulged images *)
  mutable p_on_divulge : (Image.t -> unit) option;
  mutable p_alive : bool;
  mutable p_scheduled : bool;
  p_started : float;
  mutable p_ended : float option;
  mutable p_handle : Domain.handle;
  mutable p_out_memo : out_memo option;
}

(* A routed message on its way to a destination domain: the sender, the
   memoized destination, the send-time fan-out set (for re-routing when
   the destination dies in flight) and the value. *)
type pending_msg = {
  bm_src : endpoint;
  bm_dst : dest_entry;
  bm_peers : endpoint list;
  bm_value : Value.t;
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
  programs : (string, Dr_lang.Ast.program * Dr_interp.Cache.artifact) Hashtbl.t;
  mutable procs_rev : process list;
  live : (string, process) Hashtbl.t;
  mutable routes_rev : (endpoint * endpoint) list;
  route_index : (endpoint, endpoint list) Hashtbl.t;
  mutable fault_hooks : fault_hooks option;
  down_hosts : (string, unit) Hashtbl.t;
  mutable transport : transport option;
  mutable activity_hook : (string -> unit) option;
  corrupt_images : (string, unit) Hashtbl.t;
  mutable quarantine_rev : quarantined list;
  mutable bus_metrics : Metrics.t option;
  (* broker domains: [shards] partitions of the fleet, each with an
     arena process table; [inbound] holds the per-destination-domain
     delivery batches. Shard count decides only how instances are
     partitioned and how traffic is attributed: every count runs the
     same send and delivery code. *)
  shards : int;
  domains : process Domain.t array;
  inbound : pending_msg Domain.Batch.t array;
  mutable spawn_rr : int;  (* round-robin domain assignment counter *)
  mutable routes_version : int;
  dom_labels : (string * string) list array;  (* prebuilt metric labels *)
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
          Hashtbl.iter
            (fun iface q ->
              Metrics.set_gauge r "bus.queue_depth"
                ~labels:[ ("instance", instance); ("iface", iface) ]
                (float_of_int (Queue.length q)))
            p.p_queues)
        t.live;
      (* per-domain attribution: the send path bumps plain counters on
         the Domain records; surface them, and the messages parked in
         batches, only at snapshot time. (Model-checking mode schedules
         each message as its own event, so nothing is parked there.) *)
      let in_flight = ref 0 in
      Array.iter
        (fun b -> in_flight := !in_flight + Domain.Batch.in_flight b)
        t.inbound;
      Metrics.set_gauge r "bus.in_flight" (float_of_int !in_flight);
      Array.iteri
        (fun i d ->
          let labels = t.dom_labels.(i) in
          Metrics.set_gauge r "bus.domain_live" ~labels
            (float_of_int (Domain.live_count d));
          Metrics.set_gauge r "bus.domain_routed" ~labels
            (float_of_int (Domain.routed d));
          Metrics.set_gauge r "bus.domain_delivered" ~labels
            (float_of_int (Domain.delivered d));
          Metrics.set_gauge r "bus.domain_batches" ~labels
            (float_of_int (Domain.batches d)))
        t.domains)

let set_metrics t registry =
  t.bus_metrics <- Some registry;
  install_collectors t registry

let metrics t = t.bus_metrics

let create ?(params = default_params) ?(shards = 1) ~hosts () =
  let shards = max 1 shards in
  let t =
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
      quarantine_rev = [];
      bus_metrics = None;
      shards;
      domains = Array.init shards (fun i -> Domain.create ~id:i);
      inbound = Array.init shards (fun _ -> Domain.Batch.create ());
      spawn_rr = 0;
      routes_version = 0;
      dom_labels =
        Array.init shards (fun i -> [ ("domain", string_of_int i) ]);
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
      delivery_obs = None }
  in
  if Metrics.enabled_from_env () then set_metrics t (Metrics.create ());
  t

let shard_count t = t.shards

let engine t = t.engine
let trace t = t.trace
let now t = Engine.now t.engine
let params t = t.bus_params
let hosts t = t.bus_hosts

let find_host t name =
  List.find_opt (fun h -> String.equal h.host_name name) t.bus_hosts

let record t category fmt =
  Format.kasprintf
    (fun detail -> Trace.record t.trace ~time:(now t) ~category ~detail)
    fmt

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
  record t "fault" "controller crash armed after control-log append %d" after

let ctl_tick t =
  t.ctl_appends <- t.ctl_appends + 1;
  match t.ctl_crash_at with
  | Some n when t.ctl_appends >= n ->
    t.ctl_crash_at <- None;
    t.ctl_down <- true;
    record t "fault" "controller crashed after control-log append %d"
      t.ctl_appends;
    raise Controller_crash
  | _ -> ()

let recover_controller t =
  if t.ctl_down then begin
    t.ctl_down <- false;
    t.ctl_open <- 0;  (* whatever was open died with the controller *)
    record t "recover" "controller restarted"
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

let host_is_down t name = Hashtbl.mem t.down_hosts name

(* ----------------------------------------------------------- transport *)

(* A transport intercepts [route_message]'s per-destination sends (the
   reliable-delivery layer installs one); [None] is the plain
   fire-and-forget bus, byte-for-byte. *)
let set_transport t transport = t.transport <- Some transport
let clear_transport t = t.transport <- None
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
  record t "fault" "image corruption armed for %s" instance

let consume_image_corruption t ~instance =
  if Hashtbl.mem t.corrupt_images instance then begin
    Hashtbl.remove t.corrupt_images instance;
    record t "fault" "injected image corruption: %s" instance;
    true
  end
  else false

let quarantine_image t ~instance ~reason ~byte_size =
  m_incr t ~labels:[ ("instance", instance) ] "reconfig.quarantined";
  t.quarantine_rev <-
    { q_time = now t; q_instance = instance; q_reason = reason;
      q_byte_size = byte_size }
    :: t.quarantine_rev;
  record t "quarantine" "image from %s quarantined (%d byte(s)): %s" instance
    byte_size reason

let quarantined t = List.rev t.quarantine_rev

let crash_process t ~instance ~reason =
  match find_proc t instance with
  | None -> record t "audit" "crash injection ignored: no instance %s" instance
  | Some p -> (
    match Machine.status p.p_machine with
    | Machine.Halted | Machine.Crashed _ -> ()
    | _ ->
      Machine.force_crash p.p_machine reason;
      record t "crash" "%s crashed: %s" p.p_instance reason)

let crash_host t ~host =
  if host_is_down t host then
    record t "audit" "host crash ignored: %s already down" host
  else begin
    Hashtbl.replace t.down_hosts host ();
    record t "fault" "host %s crashed" host;
    List.iter
      (fun p ->
        if p.p_alive && String.equal p.p_host.host_name host then begin
          crash_process t ~instance:p.p_instance
            ~reason:(Printf.sprintf "host %s crashed" host);
          let dropped =
            Hashtbl.fold (fun _ q acc -> acc + Queue.length q) p.p_queues 0
          in
          Hashtbl.iter (fun _ q -> Queue.clear q) p.p_queues;
          if dropped > 0 then
            record t "queue" "%s lost %d queued message(s) in host crash"
              p.p_instance dropped
        end)
      (List.rev t.procs_rev)
  end

let recover_host t ~host =
  if host_is_down t host then begin
    Hashtbl.remove t.down_hosts host;
    record t "fault" "host %s recovered" host
  end
  else record t "audit" "host recovery ignored: %s is up" host

(* ------------------------------------------------------------ programs *)

let register_program t (program : Dr_lang.Ast.program) =
  (* Typecheck + lower + resolve through the content-keyed cache:
     re-registering the same module text (retries, restarts, repeated
     deployments, explored executions) reuses one checked, compiled
     artifact. *)
  match Dr_interp.Cache.prepare program with
  | Error errors ->
    Error
      (Fmt.str "%s does not typecheck: %a" program.module_name
         (Fmt.list ~sep:(Fmt.any "; ") Dr_lang.Typecheck.pp_error)
         errors)
  | Ok artifact ->
    Hashtbl.replace t.programs program.module_name (program, artifact);
    Ok ()

let registered_program t name =
  Option.map fst (Hashtbl.find_opt t.programs name)

let registered_modules t =
  List.sort String.compare
    (Hashtbl.fold (fun name _ acc -> name :: acc) t.programs [])

(* ----------------------------------------------------------- scheduling *)

let latency t src_host dst_host =
  if String.equal src_host.host_name dst_host.host_name then
    t.bus_params.local_latency
  else t.bus_params.remote_latency

(* Event labels for the model checker: computed only in MC mode, so the
   production hot path never pays for the route scan (and labels are inert
   there anyway). A quantum may run controller code — a divulge callback
   fires inside the target's quantum — so whenever a script is open or a
   callback is armed the label degrades to global (touch = [], dependent
   with everything). Otherwise a quantum touches its own instance plus
   every instance its out-routes can reach, which over-approximates the
   messages it may send. *)
let quantum_label t p =
  if not (Engine.mc_enabled t.engine) then Engine.tau
  else if t.ctl_open > 0 || Option.is_some p.p_on_divulge then
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
  if not (Engine.mc_enabled t.engine) then Engine.tau
  else
    let inst = fst dst in
    let touch =
      match Hashtbl.find_opt t.drain_members inst with
      | Some members -> Array.to_list members
      | None -> [ inst ]
    in
    Engine.label ~touch
      ~info:
        (Printf.sprintf "deliver %s.%s %s" inst (snd dst)
           (Value.to_string value))
      "deliver"

let net_label t ~src ~dst =
  if not (Engine.mc_enabled t.engine) then Engine.tau
  else
    Engine.label
      ~touch:[ fst src; fst dst ]
      ~info:
        (Printf.sprintf "net %s.%s -> %s.%s" (fst src) (snd src) (fst dst)
           (snd dst))
      "net"

let rec schedule_quantum t p ~delay =
  if p.p_alive && not p.p_scheduled then begin
    p.p_scheduled <- true;
    Engine.schedule ~label:(quantum_label t p) t.engine ~delay (fun () ->
        run_quantum t p)
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
       instead of a [step] call, and dispatches fused pairs when the
       instance has fusion enabled *)
    let executed = Machine.exec_budget p.p_machine t.bus_params.quantum in
    (* the guard keeps the label list from being allocated per quantum
       when no registry is attached — this is the hottest call site *)
    if Option.is_some t.bus_metrics then
      m_incr t ~labels:[ ("instance", p.p_instance) ] ~by:executed
        "interp.instructions";
    let cost = float_of_int executed *. t.bus_params.instr_cost in
    match Machine.status p.p_machine with
    | Machine.Ready -> schedule_quantum t p ~delay:(Float.max cost t.bus_params.instr_cost)
    | Machine.Sleeping duration -> schedule_wake t p ~delay:(cost +. duration)
    | Machine.Blocked_read _ | Machine.Blocked_decode ->
      (* parked: woken by message/state arrival *)
      ()
    | Machine.Halted -> record t "halt" "%s halted" p.p_instance
    | Machine.Crashed message ->
      record t "crash" "%s crashed: %s" p.p_instance message
  end

and schedule_wake t p ~delay =
  Engine.schedule ~label:(quantum_label t p) t.engine ~delay (fun () ->
      if p.p_alive then begin
        Machine.set_ready p.p_machine;
        resume t p
      end)

(* Run a machine that a wake or a delivery just made ready. Like the
   send path, this picks its granularity from [Engine.mc_enabled], never
   from shard count. In model-checking mode the quantum is its own
   delay-0 event, so the explorer can interleave it with everything else
   due at this instant. In production it runs right away, saving an
   event-queue pop per wake; that order is one of the interleavings the
   explorer visits. *)
and resume t p =
  if Engine.mc_enabled t.engine then schedule_quantum t p ~delay:0.0
  else if not p.p_scheduled then run_quantum t p

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
    record t "bind" "add %s.%s -> %s.%s" (fst src) (snd src) (fst dst) (snd dst)
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
  record t "bind" "del %s.%s -> %s.%s" (fst src) (snd src) (fst dst) (snd dst)

let routes_from t src = index_bucket t src

let routes_to t dst =
  List.rev
    (List.filter_map
       (fun (s, d) -> if endpoint_equal d dst then Some s else None)
       t.routes_rev)

let all_routes t = List.rev t.routes_rev

(* -------------------------------------------------------------- queues *)

let queue_of p iface =
  match p.p_last_queue with
  | Some (cached, q) when String.equal cached iface -> q
  | _ ->
    let q =
      match Hashtbl.find_opt p.p_queues iface with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace p.p_queues iface q;
        q
    in
    p.p_last_queue <- Some (iface, q);
    q

let pending_messages t (instance, iface) =
  match find_proc t instance with
  | None -> 0
  | Some p -> Queue.length (queue_of p iface)

(* ---------------------------------------------- drain-aware routing *)

let detector_config t = t.det_config

let set_detector_config t cfg =
  if cfg.dc_period <= 0.0 then
    invalid_arg "set_detector_config: period must be positive";
  if cfg.dc_timeout <= 0.0 then
    invalid_arg "set_detector_config: timeout must be positive";
  if cfg.dc_threshold <= 0 then
    invalid_arg "set_detector_config: threshold must be positive";
  t.det_config <- cfg

let set_drain_group t ~members =
  let arr = Array.of_list members in
  List.iter (fun m -> Hashtbl.replace t.drain_members m arr) members

let drain_group t ~instance =
  match Hashtbl.find_opt t.drain_members instance with
  | Some arr -> Array.to_list arr
  | None -> []

let mark_draining t ~instance =
  if not (Hashtbl.mem t.draining instance) then begin
    Hashtbl.replace t.draining instance ();
    record t "drain" "%s draining: new deliveries shed to siblings" instance
  end

let clear_draining t ~instance =
  if Hashtbl.mem t.draining instance then begin
    Hashtbl.remove t.draining instance;
    record t "drain" "%s admitting again" instance
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
        record t "drain" "redirect %s.%s -> %s.%s (draining)" instance iface
          target iface;
        (target, iface)
      | Some _ | None -> dst

(* Append a value to a live destination's input queue. [true] iff that
   woke a reader blocked on the interface; the caller decides when the
   reader's quantum runs. *)
let enqueue t kind p ~dst value =
  notify_delivery t ~dst ~kind value;
  Queue.add value (queue_of p (snd dst));
  match Machine.status p.p_machine with
  | Machine.Blocked_read blocked_iface when String.equal blocked_iface (snd dst)
    ->
    Machine.set_ready p.p_machine;
    true
  | _ -> false

let count_delivered t p =
  let dom = p.p_handle.Domain.h_dom in
  Domain.count_delivered t.domains.(dom);
  if Option.is_some t.bus_metrics then
    m_incr t ~labels:t.dom_labels.(dom) "bus.delivered"

let deliver_k t kind ~dst value =
  let dst = drain_redirect t dst in
  let instance, iface = dst in
  match find_proc t instance with
  | None ->
    m_incr t ~labels:[ ("instance", instance) ] "bus.dropped";
    record t "drop" "message for dead instance %s.%s" instance iface
  | Some p ->
    if host_is_down t p.p_host.host_name then
      record t "fault" "delivery to %s.%s failed: host %s is down" instance
        iface p.p_host.host_name
    else begin
      count_delivered t p;
      if enqueue t kind p ~dst value then schedule_quantum t p ~delay:0.0
    end

let deliver t ~dst value = deliver_k t Fresh ~dst value

let inject t ~dst value = deliver t ~dst value

let copy_queue t ~src ~dst =
  match find_proc t (fst src) with
  | None -> ()
  | Some sp ->
    let q = queue_of sp (snd src) in
    let moved = Queue.length q in
    (* drain first: when [dst] is (or routes back into) [src], delivery
       appends to the very queue being copied, and iterating it while
       appending is unspecified *)
    let values = List.of_seq (Queue.to_seq q) in
    Queue.clear q;
    List.iter (fun v -> deliver_k t Transfer ~dst v) values;
    record t "queue" "cq %s.%s -> %s.%s (%d message(s))" (fst src) (snd src)
      (fst dst) (snd dst) moved

let take_queue t ep =
  match find_proc t (fst ep) with
  | None -> []
  | Some p ->
    let q = queue_of p (snd ep) in
    let values = List.of_seq (Queue.to_seq q) in
    Queue.clear q;
    values

let peek_queue t ep =
  match find_proc t (fst ep) with
  | None -> []
  | Some p -> List.of_seq (Queue.to_seq (queue_of p (snd ep)))

let drop_queue t ep =
  match find_proc t (fst ep) with
  | None -> ()
  | Some p ->
    let q = queue_of p (snd ep) in
    let dropped = Queue.length q in
    Queue.clear q;
    record t "queue" "rmq %s.%s (%d message(s))" (fst ep) (snd ep) dropped

(* ------------------------------------------------------------- send *)

(* Resolve a destination entry: the gen-checked arena lookup when the
   cached handle is fresh — an array index, no hashing — else fall back
   to the by-name table and re-warm the handle. A handle cached before
   a kill gen-fails here even if the slot was since reused, so a stale
   memo can never alias a different instance. *)
let resolve_dest t (de : dest_entry) =
  let h = de.de_handle in
  let hit =
    if Domain.is_null h then None else Domain.get t.domains.(h.Domain.h_dom) h
  in
  match hit with
  | Some _ as r -> r
  | None -> (
    match find_proc t (fst de.de_dst) with
    | Some p ->
      de.de_handle <- p.p_handle;
      Some p
    | None -> None)

(* Rebuild the sender's out-route memo when the route table has moved
   since it was cut (or the interface changed). [om_peers] is the
   send-time fan-out set the redirect logic needs, identical to a fresh
   [routes_from] because any add/del bumps [routes_version]. *)
let cut_out_memo t p iface =
  let src = (p.p_instance, iface) in
  let dsts = routes_from t src in
  let memo =
    { om_iface = iface;
      om_version = t.routes_version;
      om_peers = dsts;
      om_dests =
        Array.of_list
          (List.map
             (fun dst ->
               let handle =
                 match find_proc t (fst dst) with
                 | Some dp -> dp.p_handle
                 | None -> Domain.null_handle
               in
               { de_dst = dst; de_handle = handle })
             dsts) }
  in
  p.p_out_memo <- Some memo;
  memo

let out_memo_of t p iface =
  match p.p_out_memo with
  | Some m when m.om_version = t.routes_version && String.equal m.om_iface iface
    ->
    m
  | _ -> cut_out_memo t p iface

(* Deliver one routed message. A live destination gets the value and,
   if that woke a reader blocked on the interface, [Some reader] comes
   back for the caller to resume. Every failure case keeps its trace
   wording. *)
let deliver_routed t (bm : pending_msg) =
  let dst = bm.bm_dst.de_dst in
  match resolve_dest t bm.bm_dst with
  | None -> (
    (* The destination died in flight (a reconfiguration replaced it).
       The paper's bus applies rebinding commands atomically, so the
       message follows the new bindings, but only the routes added since
       the send: re-fanning out to every current route would hand a
       duplicate to each surviving peer of a multicast binding. *)
    let rebound =
      List.filter
        (fun d -> not (List.exists (endpoint_equal d) bm.bm_peers))
        (routes_from t bm.bm_src)
    in
    match rebound with
    | [] ->
      record t "drop" "in-flight message from %s.%s lost" (fst bm.bm_src)
        (snd bm.bm_src);
      None
    | dsts ->
      List.iter (fun dst -> deliver t ~dst bm.bm_value) dsts;
      None)
  | Some _ when Hashtbl.length t.draining > 0 && Hashtbl.mem t.draining (fst dst)
    ->
    (* draining member: [deliver] redirects to an admitting sibling (only
       drain windows pay this) *)
    deliver t ~dst bm.bm_value;
    None
  | Some p ->
    if host_is_down t p.p_host.host_name then begin
      record t "fault" "delivery to %s.%s failed: host %s is down" (fst dst)
        (snd dst) p.p_host.host_name;
      None
    end
    else begin
      count_delivered t p;
      if enqueue t Fresh p ~dst bm.bm_value then Some p else None
    end

(* Deliver a batch bound for one domain, in insertion order (per-route
   FIFO). Every message is enqueued first, then each woken reader
   resumes once, in wake order, so a reader sees all of its same-instant
   messages in one quantum. *)
let deliver_batch t dom_idx batch =
  let size = List.length batch in
  Domain.count_batch t.domains.(dom_idx) ~size;
  (match t.bus_metrics with
  | Some r ->
    Metrics.incr r ~labels:t.dom_labels.(dom_idx) "bus.batches";
    Metrics.observe r "bus.batch_size" (float_of_int size)
  | None -> ());
  List.iter (resume t) (List.filter_map (deliver_routed t) batch)

(* Run [send ~delay] as the fault plane decides. The draw order (jitter,
   then the loss/duplicate decision) is what seeded fault plans replay. *)
let with_faults t ~src ~dst ~delay send =
  match t.fault_hooks with
  | None -> send ~delay
  | Some hooks -> (
    let delay = delay +. hooks.fh_jitter () in
    match hooks.fh_message ~src ~dst with
    | Deliver -> send ~delay
    | Drop ->
      record t "fault" "injected loss: %s.%s -> %s.%s" (fst src) (snd src)
        (fst dst) (snd dst)
    | Duplicate ->
      record t "fault" "injected duplicate: %s.%s -> %s.%s" (fst src) (snd src)
        (fst dst) (snd dst);
      send ~delay;
      send ~delay)

(* The send path: memoized fan-out, handles instead of string keys, and
   per-hop batching. A message joins the batch for its destination
   domain at its exact delivery instant, and only the first message of a
   batch schedules an engine event. In model-checking mode each message
   is instead its own [deliver] event, a choice point for the explorer. *)
let route_message t p iface value =
  (match t.activity_hook with
  | Some hook -> hook p.p_instance
  | None -> ());
  let memo = out_memo_of t p iface in
  if Array.length memo.om_dests = 0 then begin
    m_incr t ~labels:[ ("instance", p.p_instance) ] "bus.dropped";
    record t "drop" "%s.%s has no binding; message discarded" p.p_instance iface
  end
  else begin
    let src = (p.p_instance, iface) in
    let metrics_on = Option.is_some t.bus_metrics in
    let src_dom = p.p_handle.Domain.h_dom in
    Array.iter
      (fun de ->
        Domain.count_routed t.domains.(src_dom);
        if metrics_on then
          m_incr t ~labels:t.dom_labels.(src_dom) "bus.messages_routed";
        let handled =
          match t.transport with
          | Some tr -> tr.tr_send ~src ~dst:de.de_dst value
          | None -> false
        in
        if not handled then begin
          let dst_host, dst_dom =
            match resolve_dest t de with
            | Some dp -> (dp.p_host, dp.p_handle.Domain.h_dom)
            | None -> (p.p_host, src_dom)
          in
          let push ~delay =
            let due = now t +. delay in
            let msg =
              { bm_src = src; bm_dst = de; bm_peers = memo.om_peers;
                bm_value = value }
            in
            if Engine.mc_enabled t.engine then
              Engine.schedule_at
                ~label:(deliver_label t ~dst:de.de_dst value)
                t.engine ~time:due
                (fun () -> deliver_batch t dst_dom [ msg ])
            else if Domain.Batch.add t.inbound.(dst_dom) ~due msg then
              Engine.schedule_at t.engine ~time:due (fun () ->
                  deliver_batch t dst_dom
                    (Domain.Batch.drain t.inbound.(dst_dom) ~due))
          in
          with_faults t ~src ~dst:de.de_dst
            ~delay:(latency t p.p_host dst_host) push
        end)
      memo.om_dests
  end

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
  with_faults t ~src ~dst ~delay (fun ~delay ->
      Engine.schedule ~label:(net_label t ~src ~dst) t.engine ~delay k)

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
      if enqueue t Fresh p ~dst value then schedule_quantum t p ~delay:0.0;
      true
    end

(* -------------------------------------------------------------- spawn *)

(* The io closures need the process record, and the process record needs
   the machine built over the io: tie the knot with a forward reference,
   resolved before the machine ever steps. *)
let instance_io t (p_ref : process option ref) : Dr_interp.Io_intf.t =
  let the_proc () =
    match !p_ref with
    | Some p -> p
    | None -> invalid_arg "bus: io used before the process was registered"
  in
  { io_query =
      (fun iface -> not (Queue.is_empty (queue_of (the_proc ()) iface)));
    io_read =
      (fun iface ->
        let q = queue_of (the_proc ()) iface in
        if Queue.is_empty q then None else Some (Queue.take q));
    io_write = (fun iface value -> route_message t (the_proc ()) iface value);
    io_print =
      (fun line ->
        let p = the_proc () in
        p.p_outputs <- line :: p.p_outputs;
        record t "print" "%s: %s" p.p_instance line);
    io_now = (fun () -> now t);
    io_encode =
      (fun image ->
        let p = the_proc () in
        record t "state" "%s divulged %d record(s), %d byte(s)" p.p_instance
          (Image.depth image) (Image.byte_size image);
        match p.p_on_divulge with
        | Some callback ->
          p.p_on_divulge <- None;
          callback image
        | None -> p.p_divulged <- p.p_divulged @ [ image ]);
    io_decode = (fun () -> None)
      (* images arrive via [deposit_state], which feeds the machine
         directly; mh_decode blocks otherwise *) }

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

(* Build a process around [make_machine]'s machine and register it: the
   roster, the live table, and an arena slot in the next domain
   round-robin. *)
let register t ~instance ~module_name ~host ~spec make_machine =
  let p_ref = ref None in
  let machine = make_machine (instance_io t p_ref) in
  let gen = t.spawn_gen in
  t.spawn_gen <- t.spawn_gen + 1;
  let p =
    { p_instance = instance;
      p_module = module_name;
      p_gen = gen;
      p_host = host;
      p_spec = spec;
      p_machine = machine;
      p_queues = Hashtbl.create 8;
      p_last_queue = None;
      p_outputs = [];
      p_divulged = [];
      p_on_divulge = None;
      p_alive = true;
      p_scheduled = false;
      p_started = now t;
      p_ended = None;
      p_handle = Domain.null_handle;
      p_out_memo = None }
  in
  p_ref := Some p;
  t.procs_rev <- p :: t.procs_rev;
  Hashtbl.replace t.live instance p;
  p.p_handle <- Domain.alloc t.domains.(t.spawn_rr mod t.shards) p;
  t.spawn_rr <- t.spawn_rr + 1;
  p

let spawn t ~instance ~module_name ~host ?spec ?(status = "normal") () =
  match placement t ~instance ~host with
  | Error _ as e -> e
  | Ok h -> (
    match Hashtbl.find_opt t.programs module_name with
    | None -> Error (Printf.sprintf "module %s is not registered" module_name)
    | Some (program, artifact) ->
      let p =
        register t ~instance ~module_name ~host:h ~spec (fun io ->
            Machine.create ~status_attr:status ~io
              ~resolved:artifact.Dr_interp.Cache.a_resolved program)
      in
      m_incr t ~labels:[ ("instance", instance) ] "bus.spawns";
      record t "lifecycle" "%s (%s) started on %s as %s" instance module_name
        h.host_name status;
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
        ~spec:source.p_spec (fun io -> Machine.clone source.p_machine ~io)
    in
    record t "lifecycle" "%s snapshot-cloned as %s on %s" of_instance instance
      h.host_name;
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
  | None -> record t "audit" "kill ignored: no instance %s" instance
  | Some p ->
    p.p_alive <- false;
    p.p_ended <- Some (now t);
    Hashtbl.remove t.live instance;
    (* retire the arena slot: the generation bump invalidates every
       handle cached for this instance, so out-route memos can never
       alias whatever reuses the slot *)
    if not (Domain.is_null p.p_handle) then begin
      Domain.free t.domains.(p.p_handle.Domain.h_dom) p.p_handle;
      p.p_handle <- Domain.null_handle
    end;
    t.routes_version <- t.routes_version + 1;
    m_incr t ~labels:[ ("instance", instance) ] "bus.kills";
    record t "lifecycle" "%s removed" instance;
    (* a divulge callback armed on a dead instance can never fire; keep
       it from lingering on the dead record *)
    if Option.is_some p.p_on_divulge then begin
      p.p_on_divulge <- None;
      record t "state" "%s removed with a pending divulge callback; cancelled"
        instance
    end;
    let dropped =
      Hashtbl.fold (fun _ q acc -> acc + Queue.length q) p.p_queues 0
    in
    if dropped > 0 then
      record t "queue" "%s removed with %d undelivered message(s)" instance
        dropped

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
      (Hashtbl.fold
         (fun iface q acc -> (iface, List.of_seq (Queue.to_seq q)) :: acc)
         p.p_queues [])

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
  | None -> record t "audit" "wake ignored: no instance %s" instance
  | Some p -> (
    match Machine.status p.p_machine with
    | Machine.Halted | Machine.Crashed _ ->
      (* set_ready is a no-op on a stopped machine; scheduling a quantum
         for it would be too — make the mismatch auditable instead *)
      record t "audit" "wake ignored: %s already stopped" instance
    | _ ->
      Machine.set_ready p.p_machine;
      schedule_quantum t p ~delay:0.0)

let signal_reconfig t ~instance =
  match find_proc t instance with
  | None -> ()
  | Some p ->
    m_incr t ~labels:[ ("instance", instance) ] "reconfig.signals";
    record t "signal" "reconfiguration signal -> %s" instance;
    Machine.deliver_signal p.p_machine

let on_divulge t ~instance callback =
  match find_proc t instance with
  | None ->
    (* idempotency parity with [wake]/[kill]: arming a callback on a
       removed instance is a quiet no-op, but an auditable one *)
    record t "audit" "divulge callback for dead instance %s discarded" instance
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
        record t "audit" "divulge callback for %s discarded: already stopped"
          instance
      | _ -> p.p_on_divulge <- Some callback))

let cancel_divulge t ~instance =
  match find_proc t instance with
  | None -> record t "audit" "divulge cancel ignored: no instance %s" instance
  | Some p ->
    if Option.is_some p.p_on_divulge then begin
      p.p_on_divulge <- None;
      record t "state" "divulge callback for %s cancelled" instance
    end

let take_divulged t ~instance =
  match find_proc t instance with
  | None -> None
  | Some p -> (
    match p.p_divulged with
    | image :: rest ->
      p.p_divulged <- rest;
      Some image
    | [] -> None)

let deposit_state t ~instance ?expect image =
  match find_proc t instance with
  | None ->
    record t "audit" "state image for dead instance %s discarded" instance
  | Some p -> (
    match Machine.status p.p_machine with
    | Machine.Halted | Machine.Crashed _ ->
      record t "audit" "state image for %s discarded: already stopped" instance
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
        record t "state" "state image deposited into %s" instance;
        Machine.feed_image p.p_machine image;
        schedule_quantum t p ~delay:0.0))

let run ?until ?max_events t = Engine.run ?until ?max_events t.engine

let run_while t ?(max_events = max_int) predicate =
  let fired = ref 0 in
  while predicate () && !fired < max_events && Engine.step t.engine do
    incr fired
  done

let quiescent t = Engine.pending t.engine = 0

(* ------------------------------------------------------------- domains *)

type domain_stats = {
  d_id : int;
  d_live : int;
  d_routed : int;
  d_delivered : int;
  d_batches : int;
  d_batched : int;
}

let domain_of_instance t ~instance =
  Option.bind (find_proc t instance) (fun p ->
      if Domain.is_null p.p_handle then None else Some p.p_handle.Domain.h_dom)

let domain_stats t =
  Array.to_list
    (Array.map
       (fun d ->
         { d_id = Domain.id d;
           d_live = Domain.live_count d;
           d_routed = Domain.routed d;
           d_delivered = Domain.delivered d;
           d_batches = Domain.batches d;
           d_batched = Domain.batched d })
       t.domains)
