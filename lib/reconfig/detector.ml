(* Heartbeat failure detector.

   The monitor side never reads machine state: its only inputs are
   (a) bus activity — every message an instance sends is liveness
   evidence, via [Bus.on_activity] — and (b) periodic heartbeats. The
   heartbeat emitter models the host-local watchdog agent: it reads the
   *local* process table (machine status, host up) to decide whether
   its instance can still beat, then sends the beat over the bus, where
   it is subject to the same loss and jitter as any message. Lost
   heartbeats during a quiet spell are exactly how a live instance gets
   falsely suspected — the race the supervisor's generation fencing
   must win.

   Suspicion: each check tick, an instance silent for longer than
   [timeout] gains one suspicion level; [threshold] consecutive silent
   ticks make it suspected (one lost heartbeat is not an outage). Any
   evidence resets the level, and clears an existing suspicion.

   Bookkeeping is incremental so a 100k-instance fleet doesn't pay an
   O(live) suspicion scan per tick:

   - heartbeat emission is inherently one beat per watched instance per
     period, but runs off a cached name-sorted roster array rebuilt
     only on membership change — no per-tick fold + sort allocation,
     and beat order (hence fault-plane PRNG draw order) matches the old
     sorted-scan implementation exactly;
   - suspicion checks run off a due wheel (a priority queue keyed by
     the time an instance's silence would exceed [timeout]).
     Evidence is O(1) — field writes only, no wheel surgery; a wheel
     entry made stale by fresh evidence is lazily re-armed at the next
     pop. Each tick therefore only touches instances whose silence
     horizon actually passed, and a suspected instance costs nothing
     until evidence clears it. *)

module Bus = Dr_bus.Bus
module E = Dr_sim.Trace_event
module Machine = Dr_interp.Machine
module Engine = Dr_sim.Engine
module Pqueue = Dr_sim.Pqueue

type watch_state = {
  mutable w_last_seen : float;
  mutable w_level : int;
  mutable w_suspected : bool;
  w_stamp : int;  (* identity of this watch incarnation *)
  mutable w_armed : bool;  (* has a live entry in the due wheel *)
}

type t = {
  bus : Bus.t;
  period : float;
  timeout : float;
  threshold : int;
  watched : (string, watch_state) Hashtbl.t;
  mutable running : bool;
  (* incremental check plane *)
  wheel : (string * int) Pqueue.t;  (* (instance, stamp) by due *)
  mutable wheel_seq : int;
  mutable stamp_counter : int;
  mutable roster : (string * watch_state) array;  (* name-sorted cache *)
  mutable roster_dirty : bool;
  (* overhead accounting, for the flatness regression test *)
  mutable total_beats : int;
  mutable total_checks : int;
}

(* Exactly one armed wheel entry per watched, unsuspected instance:
   armed at [watch], re-armed at pop, disarmed while suspected. *)
let arm t instance w ~due =
  if not w.w_armed then begin
    w.w_armed <- true;
    t.wheel_seq <- t.wheel_seq + 1;
    Pqueue.push t.wheel ~time:due ~seq:t.wheel_seq
      (instance, w.w_stamp)
  end

let evidence t instance =
  match Hashtbl.find_opt t.watched instance with
  | None -> ()
  | Some w ->
    w.w_last_seen <- Bus.now t.bus;
    w.w_level <- 0;
    if w.w_suspected then begin
      w.w_suspected <- false;
      Bus.record t.bus (E.Suspect_cleared instance);
      arm t instance w ~due:(w.w_last_seen +. t.timeout)
    end

(* Heartbeats converge on a pseudo-endpoint; only the callback matters,
   but naming the endpoints lets fault rules scope onto the heartbeat
   traffic specifically (loss@c>_detector=1 starves the detector of
   c's beats without touching application messages). *)
let monitor_endpoint = ("_detector", "hb")

let emit_heartbeat t instance =
  match Bus.process_status t.bus ~instance with
  | None -> ()
  | Some (Machine.Halted | Machine.Crashed _) -> ()
  | Some _ ->
    let host_down =
      match Bus.instance_host t.bus ~instance with
      | Some host -> Bus.host_is_down t.bus host
      | None -> true
    in
    if not host_down then begin
      t.total_beats <- t.total_beats + 1;
      (* Stamp the beat with the emitting incarnation's spawn generation.
         A beat is only evidence for the incarnation that emitted it: if
         the instance is killed and respawned under the same name within
         one heartbeat period, a beat already in flight must not vouch
         for the new incarnation — it would carry stale generation
         evidence and mask a silent successor. Found by the model
         checker (see test_mc). *)
      let gen = Bus.instance_generation t.bus ~instance in
      Bus.transmit t.bus ~src:(instance, "hb") ~dst:monitor_endpoint (fun () ->
          if Bus.instance_generation t.bus ~instance = gen then
            evidence t instance
          else
            Bus.record t.bus (E.Stale_heartbeat instance))
    end

let check t instance w =
  if not w.w_suspected then begin
    t.total_checks <- t.total_checks + 1;
    let now = Bus.now t.bus in
    let silence = now -. w.w_last_seen in
    if silence > t.timeout then begin
      w.w_level <- w.w_level + 1;
      if w.w_level >= t.threshold then begin
        w.w_suspected <- true;
        Bus.record t.bus
          (E.Suspected { instance; silence; level = w.w_level })
        (* stays disarmed until evidence clears the suspicion *)
      end
      else
        (* still accumulating: due again at the very next tick *)
        arm t instance w ~due:now
    end
    else
      (* evidence arrived since this entry was cut: lazily re-arm at the
         current silence horizon *)
      arm t instance w ~due:(w.w_last_seen +. t.timeout)
  end

let refresh_roster t =
  if t.roster_dirty then begin
    t.roster_dirty <- false;
    t.roster <-
      Array.of_list
        (List.sort
           (fun (a, _) (b, _) -> String.compare a b)
           (Hashtbl.fold (fun k w acc -> (k, w) :: acc) t.watched []))
  end

(* Pop every entry whose due horizon has passed. Strictly before [now]:
   an entry due exactly now has silence = timeout, which does not exceed
   it — it stays for the next tick. *)
let take_due t ~now =
  let rec drain due =
    match Pqueue.peek_time t.wheel with
    | Some time when time < now -> (
      match Pqueue.pop t.wheel with
      | Some (_, _, (instance, stamp)) -> (
        match Hashtbl.find_opt t.watched instance with
        | Some w when w.w_stamp = stamp ->
          w.w_armed <- false;
          drain ((instance, w) :: due)
        | Some _ | None -> drain due  (* stale incarnation: drop *))
      | None -> due)
    | Some _ | None -> due
  in
  (* name order, matching the old full-scan implementation's check (and
     suspicion-trace) order; only the due set is sorted, not the fleet *)
  List.sort (fun (a, _) (b, _) -> String.compare a b) (drain [])

let rec tick t () =
  if t.running then begin
    refresh_roster t;
    Array.iter (fun (instance, _) -> emit_heartbeat t instance) t.roster;
    let now = Bus.now t.bus in
    List.iter (fun (instance, w) -> check t instance w) (take_due t ~now);
    Engine.schedule
      ~label:(Engine.label ~info:"detector tick" "tick")
      (Bus.engine t.bus) ~delay:t.period (tick t)
  end

let fresh_state t =
  t.stamp_counter <- t.stamp_counter + 1;
  { w_last_seen = Bus.now t.bus;
    w_level = 0;
    w_suspected = false;
    w_stamp = t.stamp_counter;
    w_armed = false }

let watch t ~instance =
  if not (Hashtbl.mem t.watched instance) then begin
    let w = fresh_state t in
    Hashtbl.replace t.watched instance w;
    t.roster_dirty <- true;
    arm t instance w ~due:(w.w_last_seen +. t.timeout)
  end

let unwatch t ~instance =
  if Hashtbl.mem t.watched instance then begin
    Hashtbl.remove t.watched instance;
    t.roster_dirty <- true
    (* any wheel entry is now a stale incarnation and drops on pop *)
  end

let rewatch t ~old_instance ~new_instance =
  unwatch t ~instance:old_instance;
  unwatch t ~instance:new_instance;
  let w = fresh_state t in
  Hashtbl.replace t.watched new_instance w;
  t.roster_dirty <- true;
  arm t new_instance w ~due:(w.w_last_seen +. t.timeout)

let start bus ~watch:names =
  (* the parameters come from the per-bus tunables
     (Bus.set_detector_config), not compile-time constants: a rolling
     canary window can widen the detector's patience fleet-wide *)
  let cfg = Bus.detector_config bus in
  let t =
    { bus;
      period = cfg.Bus.dc_period;
      timeout = cfg.Bus.dc_timeout;
      threshold = cfg.Bus.dc_threshold;
      watched = Hashtbl.create 8;
      running = true;
      wheel = Pqueue.create ();
      wheel_seq = 0;
      stamp_counter = 0;
      roster = [||];
      roster_dirty = true;
      total_beats = 0;
      total_checks = 0 }
  in
  List.iter (fun instance -> watch t ~instance) names;
  Bus.on_activity bus (Some (fun instance -> evidence t instance));
  Engine.schedule
    ~label:(Engine.label ~info:"detector tick" "tick")
    (Bus.engine bus) ~delay:t.period (tick t);
  t

let stop t =
  if t.running then begin
    t.running <- false;
    Bus.on_activity t.bus None
  end

let suspected t ~instance =
  match Hashtbl.find_opt t.watched instance with
  | Some w -> w.w_suspected
  | None -> false

let suspicion t ~instance =
  match Hashtbl.find_opt t.watched instance with
  | Some w -> w.w_level
  | None -> 0

let watched t =
  List.sort String.compare
    (Hashtbl.fold (fun k _ acc -> k :: acc) t.watched [])

let beats_emitted t = t.total_beats
let checks_performed t = t.total_checks
