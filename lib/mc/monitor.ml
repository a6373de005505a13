(* Safety monitors checked after every transition the explorer fires.

   Each monitor is a record of closures created fresh per execution (the
   explorer boots a new simulation for every schedule, so monitor state
   must not leak across runs). Monitors that read the trace keep a
   cursor and read only the events recorded since their last step
   ({!Dr_sim.Trace.events_since}), so a step costs what the transition
   recorded, not the length of the run so far; they match event
   constructors and never render a line. [m_step] is called after
   every fired transition; [m_final] once, when the execution ends, with
   a summary of what the adversary did on this path — several end-to-end
   properties (at-least-once delivery, pinger termination) only hold on
   fault-free paths and must not fire spuriously on paths where the
   adversary legitimately destroyed the message or the process. *)

module Bus = Dr_bus.Bus
module Reliable = Dr_bus.Reliable
module Trace = Dr_sim.Trace
module E = Dr_sim.Trace_event
module Value = Dr_state.Value
module Wal = Dr_wal.Wal
module Recovery = Dr_reconfig.Recovery

type violation = { v_monitor : string; v_detail : string }

(* What the adversary spent on the path that just ended. *)
type final_info = {
  fin_quiescent : bool;  (** no transition left enabled *)
  fin_faults : int;  (** Drop/Dup decisions taken *)
  fin_kills : int;  (** instances killed by the adversary *)
  fin_ctlcrash : bool;  (** a controller crash was injected *)
}

type t = {
  m_name : string;
  m_step : unit -> violation option;
  m_final : final_info -> violation option;
}

let violation m_name fmt =
  Format.kasprintf (fun v_detail -> Some { v_monitor = m_name; v_detail }) fmt

(* {1 Exactly-once delivery per reliable route}

   Counts [Fresh] enqueues per (destination interface, payload) via the
   bus's delivery observer. [Transfer] deliveries — queue moves during
   replacement — are the same message changing address, not a second
   delivery, and are discounted. The uniqueness check applies only to
   interfaces covered by the reliable layer: without it the bus promises
   nothing. At quiescence on adversary-free paths the count must be
   exactly one for every request the pinger reports having sent. *)
let exactly_once ~bus ~iface () =
  let name = "exactly-once" in
  let counts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  Bus.set_delivery_observer bus
    (Some
       (fun ~dst:(_, dst_iface) ~kind v ->
         match kind with
         | Bus.Transfer -> ()
         | Bus.Fresh ->
           if String.equal dst_iface iface then begin
             let key = Value.to_string v in
             Hashtbl.replace counts key
               (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
           end));
  let sent_of_pinger () =
    List.concat_map
      (fun instance ->
        List.filter_map
          (fun line ->
            try Scanf.sscanf line "send %d" (fun i -> Some i)
            with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
          (Bus.outputs bus ~instance))
      (Bus.instances bus)
  in
  { m_name = name;
    m_step =
      (fun () ->
        Hashtbl.fold
          (fun key n acc ->
            match acc with
            | Some _ -> acc
            | None ->
              if n > 1 then
                violation name "request %s delivered %d times on %S" key n
                  iface
              else None)
          counts None);
    m_final =
      (fun fin ->
        if
          (not fin.fin_quiescent)
          || fin.fin_faults > 0 || fin.fin_kills > 0 || fin.fin_ctlcrash
        then None
        else
          List.fold_left
            (fun acc i ->
              match acc with
              | Some _ -> acc
              | None -> (
                match Hashtbl.find_opt counts (string_of_int i) with
                | Some 1 -> None
                | Some n ->
                  violation name "request %d delivered %d times on %S" i n
                    iface
                | None ->
                  violation name
                    "request %d sent but never delivered on %S (fault-free \
                     path)"
                    i iface))
            None (sent_of_pinger ())) }

(* {1 Epoch monotonicity under fencing}

   A channel's fencing epoch must never regress: frames from a previous
   epoch are discarded on arrival, so a regression would resurrect them.
   Keyed per (src, dst) endpoint pair; a replacement renames the channel
   (new key), which is not a regression of the old key. *)
let epoch_monotonic ~reliable () =
  let name = "epoch-monotonic" in
  let seen : (Bus.endpoint * Bus.endpoint, int) Hashtbl.t =
    Hashtbl.create 8
  in
  (* the first regressed channel in (src, dst) order, as a violation *)
  let first_regression () =
    List.find_map
      (fun st ->
        let key = (st.Reliable.st_src, st.Reliable.st_dst) in
        match Hashtbl.find_opt seen key with
        | Some prev when st.Reliable.st_epoch < prev ->
          violation name "channel %s.%s -> %s.%s epoch regressed %d -> %d"
            (fst st.Reliable.st_src) (snd st.Reliable.st_src)
            (fst st.Reliable.st_dst) (snd st.Reliable.st_dst) prev
            st.Reliable.st_epoch
        | _ -> None)
      (Reliable.stats reliable)
  in
  { m_name = name;
    m_step =
      (fun () ->
        (* a regressed channel keeps its previous epoch in [seen], so
           the report reads the same whichever channel came first *)
        let regressed = ref false in
        Reliable.iter_epochs reliable (fun key epoch ->
            match Hashtbl.find_opt seen key with
            | Some prev when epoch < prev -> regressed := true
            | Some prev when prev = epoch -> ()
            | Some _ | None -> Hashtbl.replace seen key epoch);
        if !regressed then first_regression () else None);
    m_final = (fun _ -> None) }

(* {1 No lost state across replace/rollback}

   The cell prints "cell <count> <acc>" once per processed request,
   where [count] is state carried across replacements. Whatever the
   controller does — replace, roll back, retry — the count sequence
   observed across one cell *lineage* (an instance and every successor
   a replace or supervised restart handed its state to) must be exactly
   1,2,3,…: a reset means a successor started from stale state, a skip
   means two live copies processed concurrently or a deposit landed
   twice. Lineages are read off the trace: script events name the
   replacement successor, supervisor events the restart successor. *)
let no_lost_state ~bus () =
  let name = "no-lost-state" in
  let trace = Bus.trace bus in
  let cursor = ref 0 in
  let root : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let last : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let root_of i =
    match Hashtbl.find_opt root i with Some r -> r | None -> i
  in
  let note_rename ~old_i ~new_i =
    if not (Hashtbl.mem root new_i) then
      Hashtbl.replace root new_i (root_of old_i)
  in
  { m_name = name;
    m_step =
      (fun () ->
        let fresh = Trace.events_since trace !cursor in
        cursor := Trace.length trace;
        List.fold_left
          (fun acc (_, ev) ->
            match ev with
            | E.Replace_started { instance; new_instance; _ }
            | E.Replace_completed { instance; new_instance } ->
              note_rename ~old_i:instance ~new_i:new_instance;
              acc
            | E.Restarted { old_instance; new_instance; _ } ->
              note_rename ~old_i:old_instance ~new_i:new_instance;
              acc
            | E.Print { instance; line } when Option.is_none acc -> (
              match Workload.parse_cell_print line with
              | None -> None
              | Some (count, _) ->
                let lineage = root_of instance in
                let prev =
                  Option.value ~default:0 (Hashtbl.find_opt last lineage)
                in
                if count <> prev + 1 then
                  violation name
                    "cell count sequence broke in lineage %s: %d after %d (%s)"
                    lineage count prev (E.render ev)
                else begin
                  Hashtbl.replace last lineage count;
                  None
                end)
            | _ -> acc)
          None fresh);
    m_final = (fun _ -> None) }

(* {1 Detector false positives are harmless}

   A fenced restart of a falsely-suspected instance must never leave
   both the "failed" original and its replacement alive: the whole point
   of generation fencing is that the loser of that race is dead. Read
   from the supervisor's restart events. *)
let no_double_serve ~bus () =
  let name = "no-double-serve" in
  let trace = Bus.trace bus in
  let cursor = ref 0 in
  let pairs : (string * string) list ref = ref [] in
  { m_name = name;
    m_step =
      (fun () ->
        let fresh = Trace.events_since trace !cursor in
        cursor := Trace.length trace;
        List.iter
          (fun (_, ev) ->
            match ev with
            | E.Restarted { old_instance; new_instance; _ } ->
              pairs := (old_instance, new_instance) :: !pairs
            | _ -> ())
          fresh;
        if !pairs = [] then None
        else
          let live = Bus.instances bus in
          let is_live i = List.mem i live in
          List.fold_left
            (fun acc (old_i, new_i) ->
              match acc with
              | Some _ -> acc
              | None ->
                if is_live old_i && is_live new_i then
                  violation name
                    "restart left two live successors: %s and %s" old_i new_i
                else None)
            None !pairs);
    m_final = (fun _ -> None) }

(* {1 WAL-replay equivalence (bounded form)}

   At the end of every execution the journal must parse back cleanly
   and satisfy the WAL's structural invariants; if the controller died,
   recovery replay must succeed from exactly this journal; and on paths
   where the controller survived to quiescence, no script may be left
   open — every reconfiguration either committed or rolled back. *)
let wal_consistent ~bus () =
  let name = "wal-consistent" in
  { m_name = name;
    m_step = (fun () -> None);
    m_final =
      (fun fin ->
        match Bus.wal bus with
        | None -> None
        | Some wal -> (
          match Recovery.scan wal with
          | Error e -> violation name "journal scan failed: %s" e
          | Ok scripts -> (
            match Wal.check_invariants wal with
            | Error e -> violation name "WAL invariants violated: %s" e
            | Ok () ->
              if Bus.controller_down bus then (
                match Recovery.replay bus with
                | Error e -> violation name "recovery replay failed: %s" e
                | Ok _ -> None)
              else if fin.fin_quiescent then
                List.fold_left
                  (fun acc (sc : Recovery.script) ->
                    match acc with
                    | Some _ -> acc
                    | None -> (
                      match sc.Recovery.sc_status with
                      | Recovery.In_flight ->
                        violation name
                          "script %d (%s) still open at quiescence"
                          sc.Recovery.sc_sid sc.Recovery.sc_label
                      | _ -> None))
                  None scripts
              else None))) }
