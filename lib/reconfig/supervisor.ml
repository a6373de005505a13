module Bus = Dr_bus.Bus
module E = Dr_sim.Trace_event

type restart = {
  rs_time : float;
  rs_old : string;
  rs_new : string;
  rs_host : string;
}

type t = {
  bus : Bus.t;
  detector : Detector.t;
  own_detector : bool;
  period : float;
  max_restarts : int;
  fallback_hosts : string list;
  (* base name -> (current generation's instance name, restarts so far) *)
  watched : (string, string * int) Hashtbl.t;
  mutable history : restart list;  (* newest first *)
  mutable running : bool;
}

let generation base n = Printf.sprintf "%s~%d" base n

let pick_host t ~current_host =
  if not (Bus.host_is_down t.bus current_host) then None
  else
    List.find_opt (fun h -> not (Bus.host_is_down t.bus h)) t.fallback_hosts

(* The decision is the detector's alone: the supervisor never reads
   machine status. A suspicion can be a false positive (a live instance
   whose heartbeats were lost); the restart is still safe because
   [replace_stateless ~fence:true] bumps the reliable channels' epoch,
   so whatever the displaced generation still emits arrives fenced. *)
let check t base =
  match Hashtbl.find_opt t.watched base with
  | None -> ()
  | Some (current, n) -> (
    match Bus.instance_module t.bus ~instance:current with
    | None ->
      (* removed by a reconfiguration script; nothing left to supervise *)
      Detector.unwatch t.detector ~instance:current;
      Hashtbl.remove t.watched base
    | Some _ ->
      if Detector.suspected t.detector ~instance:current then
        if n >= t.max_restarts then begin
          Bus.record t.bus
            (E.Restart_gave_up { instance = base; restarts = n });
          Detector.unwatch t.detector ~instance:current;
          Hashtbl.remove t.watched base
        end
        else begin
          let next = generation base (n + 1) in
          let new_host =
            match Bus.instance_host t.bus ~instance:current with
            | None -> None
            | Some h -> pick_host t ~current_host:h
          in
          match
            Script.replace_stateless t.bus ~instance:current
              ~new_instance:next ?new_host ~fence:true ()
          with
          | Ok _ ->
            let host =
              Option.value ~default:"?"
                (Bus.instance_host t.bus ~instance:next)
            in
            Bus.record t.bus
              (E.Restarted
                 { old_instance = current;
                   new_instance = next;
                   host;
                   restart = n + 1;
                   max_restarts = t.max_restarts });
            Detector.rewatch t.detector ~old_instance:current
              ~new_instance:next;
            Hashtbl.replace t.watched base (next, n + 1);
            t.history <-
              { rs_time = Bus.now t.bus; rs_old = current; rs_new = next;
                rs_host = host }
              :: t.history
          | Error e ->
            Bus.record t.bus
              (E.Restart_failed { instance = current; error = e })
        end)

let start bus ?(period = 1.0) ?(max_restarts = 3) ?(fallback_hosts = [])
    ?detector ~watch () =
  let detector, own_detector =
    match detector with
    | Some d -> (d, false)
    | None -> (Detector.start bus ~watch, true)
  in
  List.iter (fun base -> Detector.watch detector ~instance:base) watch;
  let t =
    { bus; detector; own_detector; period; max_restarts; fallback_hosts;
      watched = Hashtbl.create 7; history = []; running = true }
  in
  List.iter (fun base -> Hashtbl.replace t.watched base (base, 0)) watch;
  let rec tick () =
    if t.running then begin
      List.iter (check t)
        (List.sort String.compare
           (List.of_seq (Hashtbl.to_seq_keys t.watched)));
      if Hashtbl.length t.watched > 0 then
        Dr_sim.Engine.schedule
          ~label:(Dr_sim.Engine.label ~info:"supervisor tick" "tick")
          (Bus.engine bus) ~delay:t.period tick
      else begin
        t.running <- false;
        if t.own_detector then Detector.stop t.detector
      end
    end
  in
  Dr_sim.Engine.schedule
    ~label:(Dr_sim.Engine.label ~info:"supervisor tick" "tick")
    (Bus.engine bus) ~delay:t.period tick;
  t

(* A planned replacement (e.g. a rolling wave) changed the instance
   standing in for [base] out from under us. Without this, the next
   tick would see [instance_module = None] for the old generation and
   silently drop the watch — and a later crash of the new generation
   would go unrestarted. Adoption keeps the restart budget: planned
   replacement is not a crash. *)
let adopt t ~base ~instance =
  match Hashtbl.find_opt t.watched base with
  | None -> ()
  | Some (current, n) ->
    if current <> instance then begin
      Bus.record t.bus (E.Adopted { instance; base });
      Detector.rewatch t.detector ~old_instance:current ~new_instance:instance;
      Hashtbl.replace t.watched base (instance, n)
    end

let stop t =
  if t.running then begin
    t.running <- false;
    if t.own_detector then Detector.stop t.detector
  end

let restarts t = List.rev t.history

let current t ~base =
  Option.map fst (Hashtbl.find_opt t.watched base)

let detector t = t.detector
