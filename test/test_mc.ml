(* Model-checker tests: the committed counterexample that flushed out
   the divulge-fencing bug, exploration regressions over the checked
   configuration catalogue, and a qcheck harness for replay stability.

   The counterexample schedule is pinned verbatim: it must keep parsing,
   keep replaying deterministically, and keep NOT firing any monitor.
   Before the fix (Script.replace's divulge continuation running after a
   controller crash interrupted the deadline rollback) it fired
   wal-consistent with "entry during rollback of script #1". *)

module Explorer = Dr_mc.Explorer
module Configs = Dr_mc.Configs

let config name =
  match Configs.by_name name with
  | Some c -> c
  | None -> Alcotest.failf "unknown mc config %s" name

let check_clean ~name (r : Explorer.result) =
  List.iter
    (fun ((v : Dr_mc.Monitor.violation), sched) ->
      Alcotest.failf "%s: monitor %s fired: %s\nschedule: %s" name
        v.Dr_mc.Monitor.v_monitor v.Dr_mc.Monitor.v_detail
        (String.concat " " (List.map Explorer.token_to_string sched)))
    r.Explorer.res_violations

let check_exhaustive ~name (r : Explorer.result) =
  let s = r.Explorer.res_stats in
  if s.Explorer.capped || s.Explorer.depth_cuts > 0 then
    Alcotest.failf "%s: exploration not exhaustive (capped=%b depth_cuts=%d)"
      name s.Explorer.capped s.Explorer.depth_cuts

(* The schedule the checker minimized for the controller-crash /
   deadline-rollback / late-divulge race, committed the day it was
   found. [fire 8] is the replace deadline firing before the target's
   quantum [fire 6]; [ctlcrash] arms the controller to die on the
   rollback's own journal append. *)
let ctlcrash_divulge_schedule =
  "config single-replace-crash\n\
   fire 0\n\
   fire 1\n\
   deliver\n\
   fire 2\n\
   fire 3\n\
   fire 4\n\
   deliver\n\
   fire 5\n\
   deliver\n\
   fire 8\n\
   ctlcrash\n\
   fire 6\n\
   fire 7\n\
   deliver\n\
   fire 9\n\
   deliver\n\
   fire 10\n\
   fire 11\n\
   fire 12\n\
   fire 13\n\
   fire 14\n\
   fire 15\n\
   fire 16\n"

let test_ctlcrash_counterexample () =
  match Explorer.schedule_of_string ctlcrash_divulge_schedule with
  | Error e -> Alcotest.failf "schedule parse: %s" e
  | Ok (name, tokens) ->
    let name = Option.get name in
    Alcotest.(check string) "config header" "single-replace-crash" name;
    let r = Explorer.replay (config name) tokens in
    (match r.Explorer.rp_violation with
    | Some v ->
      Alcotest.failf "counterexample regressed: [%s] %s"
        v.Dr_mc.Monitor.v_monitor v.Dr_mc.Monitor.v_detail
    | None -> ());
    (* the fixed run departs from the buggy trajectory after the crash
       point, so full consumption isn't guaranteed — but a replay that
       stops before the [ctlcrash] token (position 11) never tested the
       race this schedule was minimized for *)
    if List.length r.Explorer.rp_schedule < 12 then
      Alcotest.failf "replay stopped before the crash point (%d choices)"
        (List.length r.Explorer.rp_schedule)

(* Exhaustive exploration of the acceptance configuration: every
   interleaving of one request against one replacement, all five
   monitors armed. *)
let test_single_replace_exhaustive () =
  let r = Explorer.explore ~mode:Explorer.Dpor (config "single-replace") in
  check_clean ~name:"single-replace" r;
  check_exhaustive ~name:"single-replace" r;
  let s = r.Explorer.res_stats in
  if s.Explorer.states < 50 then
    Alcotest.failf "suspiciously small state space: %d states"
      s.Explorer.states

(* The configuration that caught the divulge-fencing bug, explored in
   full: a crash budget of one (kill or controller crash) and the
   controller-crash adversary enabled. *)
let test_crash_config_clean () =
  let r =
    Explorer.explore ~mode:Explorer.Dpor (config "single-replace-crash")
  in
  check_clean ~name:"single-replace-crash" r

(* One fault decision (drop or duplicate) anywhere in the run: the
   reliable layer must still deliver exactly once, epochs must not
   regress, and the journal must stay scannable. *)
let test_faults_config_clean () =
  let r =
    Explorer.explore ~mode:Explorer.Dpor (config "single-replace-faults")
  in
  check_clean ~name:"single-replace-faults" r

(* A dropped first request forces the retransmission path; the explorer
   necessarily visits such a schedule. Pin one as a deterministic
   replay: it must reach quiescence with no monitor firing. *)
let test_drop_schedule_replays () =
  let cfg = config "single-replace-faults" in
  let found = ref None in
  let on_exec (r : Explorer.exec_report) =
    match (!found, r.Explorer.ex_end) with
    | None, Explorer.Quiescent
      when List.mem Explorer.Drop r.Explorer.ex_schedule ->
      found := Some r.Explorer.ex_schedule
    | _ -> ()
  in
  ignore (Explorer.explore ~mode:Explorer.Dpor ~on_exec cfg);
  match !found with
  | None -> Alcotest.fail "no quiescent schedule with a drop was explored"
  | Some sched ->
    let r = Explorer.replay cfg sched in
    (match r.Explorer.rp_violation with
    | Some v ->
      Alcotest.failf "drop schedule fired [%s] %s" v.Dr_mc.Monitor.v_monitor
        v.Dr_mc.Monitor.v_detail
    | None -> ());
    Alcotest.(check string) "replays to quiescence" "quiescent"
      r.Explorer.rp_end

(* Every explored execution boots from its configuration's compiled
   system: two set-ups register the very same program values, so no
   execution re-parses or re-instruments a module, and the second one
   only hits the program cache (no typecheck, no lowering). *)
let test_executions_share_compilation () =
  List.iter
    (fun name ->
      let cfg = config name in
      let a = (cfg.Explorer.c_setup ()).Explorer.r_bus in
      let misses = Dr_interp.Cache.misses () in
      let b = (cfg.Explorer.c_setup ()).Explorer.r_bus in
      Alcotest.(check int)
        (name ^ ": second boot compiles nothing")
        misses (Dr_interp.Cache.misses ());
      let modules = Dr_bus.Bus.registered_modules a in
      Alcotest.(check (list string))
        (name ^ ": same modules") modules
        (Dr_bus.Bus.registered_modules b);
      if modules = [] then Alcotest.failf "%s: no module registered" name;
      List.iter
        (fun m ->
          match
            (Dr_bus.Bus.registered_program a m, Dr_bus.Bus.registered_program b m)
          with
          | Some pa, Some pb when pa == pb -> ()
          | _ -> Alcotest.failf "%s: module %s compiled per execution" name m)
        modules)
    Configs.names

(* qcheck: any fault-free schedule the explorer visited replays to the
   same ending with no monitor firing — replay is deterministic and the
   monitors are quiet on the nominal subset. *)
let replay_stability =
  QCheck.Test.make ~count:25 ~name:"mc fault-free schedules replay clean"
    QCheck.(make Gen.int)
    (fun salt ->
      let cfg = config "single-replace" in
      let pool = ref [] in
      let on_exec (r : Explorer.exec_report) =
        match r.Explorer.ex_end with
        | Explorer.Quiescent -> pool := r.Explorer.ex_schedule :: !pool
        | _ -> ()
      in
      ignore (Explorer.explore ~mode:Explorer.Dpor ~on_exec cfg);
      let pool = Array.of_list !pool in
      Array.length pool > 0
      &&
      let sched = pool.(abs salt mod Array.length pool) in
      let r = Explorer.replay cfg sched in
      r.Explorer.rp_violation = None
      && String.equal r.Explorer.rp_end "quiescent")

let () =
  Alcotest.run "mc"
    [ ( "counterexamples",
        [ Alcotest.test_case "ctlcrash divulge race stays fixed" `Quick
            test_ctlcrash_counterexample;
          Alcotest.test_case "dropped request replays clean" `Quick
            test_drop_schedule_replays ] );
      ( "exploration",
        [ Alcotest.test_case "single-replace exhaustive and clean" `Quick
            test_single_replace_exhaustive;
          Alcotest.test_case "crash budget finds nothing" `Quick
            test_crash_config_clean;
          Alcotest.test_case "fault budget finds nothing" `Quick
            test_faults_config_clean;
          Alcotest.test_case "executions share one compilation" `Quick
            test_executions_share_compilation ] );
      ( "stability",
        [ QCheck_alcotest.to_alcotest replay_stability ] ) ]
