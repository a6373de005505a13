(* The checked configuration catalogue.

   Each constructor loads its workload once ({!Workload.load}: MIL and
   MiniProc parse, typecheck, instrumentation, compilation and the
   checked deployment plan) and builds an {!Explorer.config} whose
   [c_setup] only boots: a fresh bus in MC mode with the compiled
   programs filed and the plan applied, a fresh WAL, reliable layer,
   kick event and monitor set — called once per explored execution.
   Only immutable compiled code and the plan are shared between
   executions. Everything scheduled here must go through labeled
   events so the explorer sees it as a transition; in particular the
   reconfiguration kick is itself a "ctl" event, so its placement
   relative to application traffic is explored too. *)

module Bus = Dr_bus.Bus
module Reliable = Dr_bus.Reliable
module Engine = Dr_sim.Engine
module Script = Dr_reconfig.Script
module Detector = Dr_reconfig.Detector
module Supervisor = Dr_reconfig.Supervisor
module Storage = Dr_wal.Storage
module Wal = Dr_wal.Wal

let fresh_wal () =
  match Wal.create (Storage.storage_of_mem (Storage.memory ())) with
  | Ok w -> w
  | Error e -> failwith ("mc: wal create failed: " ^ e)

let kick_replace bus ~at ~instance ~new_instance ?new_module ?deadline () =
  Engine.schedule_at
    ~label:
      (Engine.label ~info:(Printf.sprintf "ctl kick: replace %s" instance)
         "ctl")
    (Bus.engine bus) ~time:at
    (fun () ->
      Script.replace bus ~instance ~new_instance ?new_module ?deadline
        ~on_done:(fun _ -> ())
        ())

(* {1 single-replace}

   One cell, one pinger, a reliable request route, a journal, and one
   replacement of the cell mid-traffic. The acceptance configuration:
   exhaustively explorable, all five monitors armed (the detector
   monitor is vacuously true without a supervisor — the configurations
   below give it teeth). *)
let single_replace ?(k = 2) ?(fault_budget = 0) ?(crash_budget = 0)
    ?(ctlcrash = false) ?(depth = 400) ?(max_execs = 200_000) () =
  let workload = Workload.load ~two_cells:false ~k in
  let setup () =
    let bus = Workload.boot workload in
    let wal = fresh_wal () in
    Bus.set_wal bus wal;
    (* bounded retransmission keeps the reachable space finite: every
       in-flight retransmitted copy is explorer-visible state *)
    let rel =
      Reliable.attach ~params:{ Reliable.default_params with retx_limit = 2 }
        bus
    in
    Reliable.enable_route rel ~src:("pinger", "req") ~dst:("c1", "req");
    kick_replace bus ~at:1.0 ~instance:"c1" ~new_instance:"c1v"
      ~new_module:"cellv2" ~deadline:50.0 ();
    let monitors =
      [ Monitor.exactly_once ~bus ~iface:"req" ();
        Monitor.epoch_monotonic ~reliable:rel ();
        Monitor.no_lost_state ~bus ();
        Monitor.no_double_serve ~bus ();
        Monitor.wal_consistent ~bus () ]
    in
    { Explorer.r_bus = bus;
      r_monitors = monitors;
      r_reliable = Some rel;
      r_globals = Workload.fingerprint_globals;
      r_extra_fp = (fun () -> "");
      r_kill_candidates = (if crash_budget > 0 then [ "c1" ] else []);
      r_allow_ctlcrash = ctlcrash }
  in
  { Explorer.c_name = "single-replace";
    c_setup = setup;
    c_fault_budget = fault_budget;
    c_crash_budget = crash_budget;
    c_depth = depth;
    c_max_execs = max_execs }

(* {1 double-replace}

   Two cells behind one pinger and two concurrent replacement scripts —
   the controller interleaving the explorer is really for. *)
let double_replace ?(k = 1) ?(fault_budget = 0) ?(crash_budget = 0)
    ?(ctlcrash = false) ?(depth = 500) ?(max_execs = 400_000) () =
  let workload = Workload.load ~two_cells:true ~k in
  let setup () =
    let bus = Workload.boot workload in
    let wal = fresh_wal () in
    Bus.set_wal bus wal;
    let rel =
      Reliable.attach ~params:{ Reliable.default_params with retx_limit = 2 }
        bus
    in
    Reliable.enable_route rel ~src:("pinger2", "req1") ~dst:("c1", "req");
    Reliable.enable_route rel ~src:("pinger2", "req2") ~dst:("c2", "req");
    kick_replace bus ~at:1.0 ~instance:"c1" ~new_instance:"c1v"
      ~new_module:"cellv2" ~deadline:50.0 ();
    kick_replace bus ~at:1.0 ~instance:"c2" ~new_instance:"c2v"
      ~new_module:"cellv2" ~deadline:50.0 ();
    let monitors =
      [ Monitor.exactly_once ~bus ~iface:"req" ();
        Monitor.epoch_monotonic ~reliable:rel ();
        Monitor.no_lost_state ~bus ();
        Monitor.no_double_serve ~bus ();
        Monitor.wal_consistent ~bus () ]
    in
    { Explorer.r_bus = bus;
      r_monitors = monitors;
      r_reliable = Some rel;
      r_globals = Workload.fingerprint_globals;
      r_extra_fp = (fun () -> "");
      r_kill_candidates = (if crash_budget > 0 then [ "c1"; "c2" ] else []);
      r_allow_ctlcrash = ctlcrash }
  in
  { Explorer.c_name = "double-replace";
    c_setup = setup;
    c_fault_budget = fault_budget;
    c_crash_budget = crash_budget;
    c_depth = depth;
    c_max_execs = max_execs }

(* {1 detector-restart}

   One cell under a failure detector and supervisor, with a loss budget
   aimed at heartbeats and a kill budget aimed at the cell: the false-
   suspicion / fenced-restart race. The detector's suspicion state is
   explorer-visible via the extra fingerprint component (last-seen
   times are wall-clock noise and stay out). *)
let detector_restart ?(k = 1) ?(fault_budget = 1) ?(crash_budget = 1)
    ?(depth = 60) ?(max_execs = 200_000) () =
  let workload = Workload.load ~two_cells:false ~k in
  let setup () =
    let bus = Workload.boot workload in
    Bus.set_detector_config bus
      { Bus.dc_period = 1.0; dc_timeout = 1.5; dc_threshold = 1 };
    let detector = Detector.start bus ~watch:[ "c1" ] in
    let sup =
      Supervisor.start bus ~period:1.0 ~max_restarts:1 ~detector
        ~watch:[ "c1" ] ()
    in
    let extra_fp () =
      String.concat ";"
        (List.map
           (fun i ->
             Printf.sprintf "%s:l%d:s%b" i
               (Detector.suspicion detector ~instance:i)
               (Detector.suspected detector ~instance:i))
           (Detector.watched detector))
      ^ Printf.sprintf "|restarts=%d" (List.length (Supervisor.restarts sup))
    in
    let monitors =
      [ Monitor.no_lost_state ~bus ();
        Monitor.no_double_serve ~bus ();
        Monitor.wal_consistent ~bus () ]
    in
    { Explorer.r_bus = bus;
      r_monitors = monitors;
      r_reliable = None;
      r_globals = Workload.fingerprint_globals;
      r_extra_fp = extra_fp;
      r_kill_candidates = [ "c1" ];
      r_allow_ctlcrash = false }
  in
  { Explorer.c_name = "detector-restart";
    c_setup = setup;
    c_fault_budget = fault_budget;
    c_crash_budget = crash_budget;
    c_depth = depth;
    c_max_execs = max_execs }

(* A recorded schedule only replays against the exact configuration
   (same workload size, same budgets) that produced it, so the names
   below are its only spelling: the bench, the benchmark and [drc mc]
   all build configurations through [by_name]. *)
let by_name name =
  match name with
  | "single-replace" -> Some (single_replace ~k:1 ())
  | "single-replace-k2" -> Some (single_replace ~k:2 ())
  | "single-replace-faults" ->
    Some (single_replace ~k:1 ~fault_budget:1 ~depth:200 ())
  | "single-replace-crash" ->
    Some (single_replace ~k:1 ~crash_budget:1 ~ctlcrash:true ~depth:200 ())
  | "double-replace" -> Some (double_replace ())
  | "detector-restart" -> Some (detector_restart ())
  | _ -> None

let names =
  [ "single-replace";
    "single-replace-k2";
    "single-replace-faults";
    "single-replace-crash";
    "double-replace";
    "detector-restart" ]
