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
module Workload = Dr_mc.Workload
module Bus = Dr_bus.Bus
module Engine = Dr_sim.Engine
module Machine = Dr_interp.Machine
module Value = Dr_state.Value
module Cache = Dr_interp.Cache

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
       point: it never schedules [fire 10] (choice 17), so the replay
       ends diverged there — but a replay that stops before the
       [ctlcrash] token (position 11) never tested the race this
       schedule was minimized for *)
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

(* Every explored execution boots from its configuration's loaded
   workload: two set-ups register the very same program values, so no
   execution re-parses or re-instruments a module, and a boot does not
   even look a program up in the cache (no key to compute, no
   typecheck, no lowering): the configuration prepared them once. *)
let test_executions_share_compilation () =
  List.iter
    (fun name ->
      let cfg = config name in
      let hits = Cache.hits () and misses = Cache.misses () in
      let a = (cfg.Explorer.c_setup ()).Explorer.r_bus in
      let b = (cfg.Explorer.c_setup ()).Explorer.r_bus in
      Alcotest.(check int)
        (name ^ ": a boot compiles nothing")
        misses (Cache.misses ());
      Alcotest.(check int)
        (name ^ ": a boot looks nothing up")
        hits (Cache.hits ());
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

(* A schedule that does not replay must say so, naming the choice the
   configuration refused, and not end as if it had run. single-replace
   has no fault budget, no crash budget and no kill candidate; its
   third choice is a fault point. *)
let test_diverging_schedules () =
  let cfg = config "single-replace" in
  List.iter
    (fun (text, expected) ->
      match Explorer.schedule_of_string text with
      | Error e -> Alcotest.failf "schedule parse: %s" e
      | Ok (_, tokens) ->
        let r = Explorer.replay cfg tokens in
        Alcotest.(check string) (String.escaped text) expected r.Explorer.rp_end;
        if r.Explorer.rp_run <> None || r.Explorer.rp_violation <> None then
          Alcotest.failf "%S: a diverged replay reported a run" text)
    [ ("fire 999\n", "diverged: choice 1 (fire 999) names no pending event");
      ("drop\n", "diverged: choice 1 (drop) at a scheduler point");
      ( "kill c1\n",
        "diverged: choice 1 (kill c1) is not an adversary move enabled here" );
      ( "fire 0\nfire 1\ndrop\n",
        "diverged: choice 3 (drop) exceeds the fault budget" );
      ("fire 0\nfire 1\nfire 2\n", "diverged: choice 3 (fire 2) at a fault point")
    ];
  (* the same prefix with a legal choice replays to the end *)
  match Explorer.schedule_of_string "fire 0\nfire 1\ndeliver\nfire 2\n" with
  | Error e -> Alcotest.failf "schedule parse: %s" e
  | Ok (_, tokens) ->
    Alcotest.(check string) "legal prefix" "quiescent"
      (Explorer.replay cfg tokens).Explorer.rp_end

(* {1 The fingerprint's text}

   The renderer as it was, through [Printf] and [Value.to_string], kept
   as the oracle: {!Explorer.fingerprint} writes its buffer directly and
   must produce these bytes exactly, or the visited set would change. *)

let oracle_status_string = function
  | Machine.Ready -> "ready"
  | Machine.Sleeping _ -> "sleeping"
  | Machine.Blocked_read iface -> "blocked:" ^ iface
  | Machine.Blocked_decode -> "blocked-decode"
  | Machine.Halted -> "halted"
  | Machine.Crashed m -> "crashed:" ^ m

let oracle_text (run : Explorer.run) ~faults_left ~crash_left ~ctlcrash_used =
  let bus = run.Explorer.r_bus in
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  List.iter
    (fun i ->
      add "I %s %s %s g%d %s\n" i
        (Option.value ~default:"?" (Bus.instance_module bus ~instance:i))
        (Option.value ~default:"?" (Bus.instance_host bus ~instance:i))
        (Option.value ~default:(-1) (Bus.instance_generation bus ~instance:i))
        (match Bus.process_status bus ~instance:i with
        | Some s -> oracle_status_string s
        | None -> "?");
      (match Bus.machine bus ~instance:i with
      | None -> ()
      | Some m ->
        List.iter
          (fun g ->
            match Machine.read_global m g with
            | Some v -> add "G %s=%s\n" g (Value.to_string v)
            | None -> ())
          run.Explorer.r_globals);
      List.iter (fun line -> add "O %s\n" line) (Bus.outputs bus ~instance:i);
      List.iter
        (fun (iface, vs) ->
          add "Q %s.%s [%s]\n" i iface
            (String.concat ";" (List.map Value.to_string vs)))
        (Bus.queue_contents bus ~instance:i))
    (List.sort String.compare (Bus.instances bus));
  List.iter
    (fun (((si, sp), (di, dp)) : Bus.endpoint * Bus.endpoint) ->
      add "R %s.%s>%s.%s\n" si sp di dp)
    (List.sort compare (Bus.all_routes bus));
  add "D %s\n"
    (String.concat "," (List.sort String.compare (Bus.draining_instances bus)));
  add "C %d %b %d\n" (Bus.ctl_scripts_open bus) (Bus.controller_down bus)
    (Bus.ctl_appends bus);
  (match Bus.wal bus with
  | Some w -> add "W %d\n" (Dr_wal.Wal.next_lsn w)
  | None -> ());
  (match run.Explorer.r_reliable with
  | None -> ()
  | Some rel ->
    List.iter
      (fun s ->
        add "L %s.%s>%s.%s e%d s%d d%d u%d a%d\n"
          (fst s.Dr_bus.Reliable.st_src) (snd s.Dr_bus.Reliable.st_src)
          (fst s.Dr_bus.Reliable.st_dst) (snd s.Dr_bus.Reliable.st_dst)
          s.Dr_bus.Reliable.st_epoch s.Dr_bus.Reliable.st_sent
          s.Dr_bus.Reliable.st_delivered s.Dr_bus.Reliable.st_unacked
          s.Dr_bus.Reliable.st_dup_acks)
      (List.sort compare (Dr_bus.Reliable.stats rel)));
  List.iter
    (fun (k, i) -> add "E %s|%s\n" k i)
    (List.sort compare
       (List.map
          (fun (pe : Engine.pending_event) ->
            (pe.Engine.pe_label.Engine.lb_kind,
             pe.Engine.pe_label.Engine.lb_info))
          (Engine.mc_pending (Bus.engine bus))));
  add "B %d %d %b\n" faults_left crash_left ctlcrash_used;
  add "X %s\n" (run.Explorer.r_extra_fp ());
  Buffer.contents b

let check_fingerprint what run ~faults_left ~crash_left ~ctlcrash_used =
  let text = oracle_text run ~faults_left ~crash_left ~ctlcrash_used in
  let got = Explorer.fingerprint run ~faults_left ~crash_left ~ctlcrash_used in
  if not (String.equal got (Digest.to_hex (Digest.string text))) then
    QCheck.Test.fail_reportf "%s: fingerprint differs from the oracle's text:\n%s"
      what text

(* Boot [cfg] and fire up to [steps] random moves the explorer could
   take — pending events, and message faults, kills and controller
   crashes while the configuration's budgets allow — comparing the
   fingerprint with the oracle after every transition. *)
let fingerprints_agree rng (cfg : Explorer.config) ~steps =
  let run = cfg.Explorer.c_setup () in
  let bus = run.Explorer.r_bus in
  let engine = Bus.engine bus in
  let faults = ref 0 and crashes = ref 0 and ctlcrash = ref false in
  Dr_bus.Faults.explorable bus ~decide:(fun ~src:_ ~dst:_ ->
      if !faults < cfg.Explorer.c_fault_budget && Random.State.int rng 3 = 0
      then begin
        incr faults;
        if Random.State.bool rng then Bus.Drop else Bus.Duplicate
      end
      else Bus.Deliver);
  let check () =
    check_fingerprint cfg.Explorer.c_name run
      ~faults_left:(cfg.Explorer.c_fault_budget - !faults)
      ~crash_left:(cfg.Explorer.c_crash_budget - !crashes)
      ~ctlcrash_used:!ctlcrash
  in
  let rec step k =
    match Engine.mc_pending engine with
    | [] -> ()
    | _ when k = 0 -> ()
    | pending ->
      let budget = cfg.Explorer.c_crash_budget - !crashes > 0 in
      let live = Bus.instances bus in
      let kills =
        if budget then
          List.filter (fun i -> List.mem i live) run.Explorer.r_kill_candidates
        else []
      in
      let ctl = budget && run.Explorer.r_allow_ctlcrash && not !ctlcrash in
      let n_fire = List.length pending and n_kill = List.length kills in
      let pick =
        Random.State.int rng (n_fire + n_kill + if ctl then 1 else 0)
      in
      if pick < n_fire then
        ignore
          (Engine.mc_fire engine ~seq:(List.nth pending pick).Engine.pe_seq
            : bool)
      else begin
        incr crashes;
        if pick < n_fire + n_kill then
          Bus.crash_process bus
            ~instance:(List.nth kills (pick - n_fire))
            ~reason:"mc adversary"
        else begin
          ctlcrash := true;
          Bus.arm_ctl_crash bus ~after:1
        end
      end;
      check ();
      step (k - 1)
  in
  check ();
  step steps

let all_configs = lazy (List.map config Configs.names)

let fingerprint_text_unchanged =
  QCheck.Test.make ~count:12 ~name:"fingerprint text is the Printf renderer's"
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      List.iter (fingerprints_agree rng ~steps:80) (Lazy.force all_configs);
      true)

(* The renderer writes integers, booleans and [null] itself and hands
   every other value to [Value.to_string]: a machine holding a float
   and a string, and a queue holding one of each kind (min_int
   included), must still read the oracle's text. *)
let test_fingerprint_other_values () =
  let bus = Bus.create ~hosts:Workload.hosts () in
  (match
     Bus.register_program bus
       (Support.parse
          {|
module holder;
var f: float = 2.5;
var s: string = "a b";
var n: int = -7;
var ok: bool = true;
proc main() {
  mh_init();
  print("hold ", f, " ", s);
  sleep(1000);
}
|})
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "register: %s" e);
  (match Bus.spawn bus ~instance:"h" ~module_name:"holder" ~host:"mh1" () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "spawn: %s" e);
  List.iter
    (Bus.inject bus ~dst:("h", "in"))
    [ Value.Vfloat 0.1; Value.Vstr "x;y"; Value.Vint min_int; Value.Vint 0;
      Value.Vbool false; Value.Vnull ];
  Bus.run ~until:5.0 bus;
  let run =
    { Explorer.r_bus = bus;
      r_monitors = [];
      r_reliable = None;
      r_globals = [ "f"; "s"; "n"; "ok" ];
      r_extra_fp = (fun () -> "extra");
      r_kill_candidates = [];
      r_allow_ctlcrash = false }
  in
  let text = oracle_text run ~faults_left:0 ~crash_left:(-1) ~ctlcrash_used:true in
  List.iter
    (fun line ->
      if not (List.mem line (String.split_on_char '\n' text)) then
        Alcotest.failf "state lacks %S:\n%s" line text)
    [ "G f=2.5"; "G s=\"a b\""; "G n=-7"; "G ok=true";
      "Q h.in [0.1;\"x;y\";-4611686018427387904;0;false;null]" ];
  check_fingerprint "other values" run ~faults_left:0 ~crash_left:(-1)
    ~ctlcrash_used:true

(* {1 Parsing the cell's print lines}

   [Workload.parse_cell_print] reads what the [Scanf] parser it
   replaced read. *)

let scanf_cell_print line =
  try Scanf.sscanf line " cell %d %d" (fun n a -> Some (n, a))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let check_cell_print line =
  Alcotest.(check (option (pair int int)))
    (String.escaped line) (scanf_cell_print line)
    (Workload.parse_cell_print line)

let test_parse_cell_print () =
  List.iter check_cell_print
    [ "cell 3 6"; " cell -1 2"; "cell 3"; "cells 1 2"; "send 1"; "got 101";
      "cell 3 6 and trailing text"; "cell3 6"; "\tcell  +3\n6"; "cell 1_0 2";
      "cell _1 2"; "cell - 1 2"; "cell 3x 6"; "cell 3 6x"; "cell 0x10 1"; "";
      "cell"; "cel 1 2"; "cell 4611686018427387903 -4611686018427387904";
      "cell 4611686018427387904 1"; "cell 1 -4611686018427387905" ]

let cell_print_like_scanf =
  QCheck.Test.make ~count:500 ~name:"cell print parser reads what Scanf reads"
    QCheck.(
      make ~print:String.escaped
        Gen.(
          map (String.concat "")
            (list_size (int_range 0 8)
               (oneofl
                  [ "cell"; "cel"; "l"; " "; "\t"; "-"; "+"; "_"; "0"; "7";
                    "42"; "x"; "99999999999999999999" ]))))
    (fun line ->
      scanf_cell_print line = Workload.parse_cell_print line)

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
            test_drop_schedule_replays;
          Alcotest.test_case "a schedule that does not replay says so" `Quick
            test_diverging_schedules ] );
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
        [ QCheck_alcotest.to_alcotest replay_stability ] );
      ( "fingerprint",
        [ QCheck_alcotest.to_alcotest fingerprint_text_unchanged;
          Alcotest.test_case "values written through Value.to_string" `Quick
            test_fingerprint_other_values ] );
      ( "monitors",
        [ Alcotest.test_case "cell print parser pinned to Scanf" `Quick
            test_parse_cell_print;
          QCheck_alcotest.to_alcotest cell_print_like_scanf ] ) ]
