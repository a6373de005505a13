(* Fault injection and transactional reconfiguration.

   The fault plane (Dr_bus.Faults) must be deterministic from its seed
   and invisible when disabled; the journalled scripts must either
   complete or roll the configuration back to exactly the pre-script
   route set and instance roster. *)

module Bus = Dr_bus.Bus
module Faults = Dr_bus.Faults
module Script = Dr_reconfig.Script
module Supervisor = Dr_reconfig.Supervisor
module Machine = Dr_interp.Machine
module Ring = Dr_workloads.Ring
module Monitor = Dr_workloads.Monitor

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let trace_has bus ~category ~detail =
  List.exists
    (fun (e : Dr_sim.Trace.entry) ->
      String.equal e.category category && contains detail e.detail)
    (Dr_sim.Trace.entries (Bus.trace bus))

let snapshot bus =
  let routes =
    List.sort compare
      (List.map
         (fun ((src, dst) : Bus.endpoint * Bus.endpoint) ->
           (fst src, snd src, fst dst, snd dst))
         (Bus.all_routes bus))
  in
  (routes, List.sort String.compare (Bus.instances bus))

let config = Alcotest.(pair (list (Alcotest.testable Fmt.nop ( = ))) (list string))

(* ---------------------------------------------------------- fault plane *)

let test_host_crash_and_recover () =
  let system = Ring.load () in
  let bus = Ring.start system in
  Bus.run ~until:5.0 bus;
  Bus.crash_host bus ~host:"hostB";
  (* c is the only hostB resident *)
  (match Bus.process_status bus ~instance:"c" with
  | Some (Machine.Crashed _) -> ()
  | other ->
    Alcotest.failf "c not crashed: %s"
      (match other with
      | Some s -> Fmt.str "%a" Machine.pp_status s
      | None -> "gone"));
  Alcotest.(check bool) "fault traced" true
    (trace_has bus ~category:"fault" ~detail:"host hostB crashed");
  (match Bus.spawn bus ~instance:"d" ~module_name:"member" ~host:"hostB" () with
  | Error e -> Alcotest.(check bool) "spawn names the down host" true (contains "down" e)
  | Ok () -> Alcotest.fail "spawned onto a down host");
  Bus.recover_host bus ~host:"hostB";
  (match Bus.spawn bus ~instance:"d" ~module_name:"member" ~host:"hostB" () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "spawn after recovery: %s" e);
  Alcotest.(check bool) "recovery traced" true
    (trace_has bus ~category:"fault" ~detail:"host hostB recovered")

let chaos_dump ~seed =
  let system = Ring.load () in
  let plan =
    Ring.chaos_plan ~loss:0.1 ~dup:0.05 ~host_crash:("hostB", 10.0)
      ~host_recover:15.0 ()
  in
  let bus = Ring.start_chaos ~seed ~plan system in
  Bus.run ~until:25.0 bus;
  Fmt.str "%a" Dr_sim.Trace.dump (Bus.trace bus)

let test_chaos_replay_deterministic () =
  (* the whole point of seeding: a chaos run replays byte-for-byte *)
  Alcotest.(check string) "same seed, same trace" (chaos_dump ~seed:42)
    (chaos_dump ~seed:42);
  Alcotest.(check bool) "loss actually injected" true
    (contains "injected loss" (chaos_dump ~seed:42))

let test_parse_plan () =
  (match Faults.parse_plan "seed=9,loss=0.05,dup=0.01,jitter=0.2,crash=hostB@4,recover=hostB@8,kill=b@3" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok (seed, p) ->
    Alcotest.(check int) "seed" 9 seed;
    Alcotest.(check int) "merged into one rule" 1 (List.length p.fp_rules);
    let r = List.hd p.fp_rules in
    Alcotest.(check (float 1e-9)) "loss" 0.05 r.r_loss;
    Alcotest.(check (float 1e-9)) "dup" 0.01 r.r_dup;
    Alcotest.(check int) "three events" 3 (List.length p.fp_events));
  (match Faults.parse_plan "loss@a>*=0.5" with
  | Ok (_, p) ->
    let r = List.hd p.fp_rules in
    Alcotest.(check (option string)) "src scoped" (Some "a") r.r_src;
    Alcotest.(check (option string)) "dst wildcard" None r.r_dst
  | Error e -> Alcotest.failf "scoped parse: %s" e);
  match Faults.parse_plan "bogus=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a bogus clause"

let expect_parse_error spec needle =
  match Faults.parse_plan spec with
  | Ok _ -> Alcotest.failf "accepted %S" spec
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "%S rejected with %S, got %S" spec needle e)
      true (contains needle e)

let test_parse_plan_validation () =
  (* malformed @T clauses *)
  expect_parse_error "crash=hostB@-1" "non-negative";
  expect_parse_error "crash=hostB@x" "name@time";
  expect_parse_error "crash=@4" "name@time";
  expect_parse_error "corrupt=c@-0.5" "non-negative";
  (* non-finite numbers: a NaN or infinite time or value would freeze
     the run at t = 0 *)
  expect_parse_error "kill=ticker@nan" "finite";
  expect_parse_error "crash=alpha@nan" "finite";
  expect_parse_error "recover=alpha@inf" "finite";
  expect_parse_error "loss=inf" "finite";
  expect_parse_error "dup=inf" "finite";
  expect_parse_error "jitter=inf" "finite";
  expect_parse_error "jitter=nan" "finite";
  expect_parse_error "loss@a>b=inf" "finite";
  (* contradictory clauses *)
  expect_parse_error "kill=b@3,kill=b@3" "duplicate kill clause b@3";
  expect_parse_error "crash=hostB@4,recover=hostB@4"
    "crash and recover of hostB at the same time";
  (* a later, narrower rule a broader earlier rule shadows (first match
     wins, so it could never fire) *)
  expect_parse_error "loss=0.1,loss@a>b=0.5" "shadowed";
  expect_parse_error "loss@a>*=0.1,dup@a>b=0.5" "shadowed";
  (* narrow before broad is the legal spelling *)
  (match Faults.parse_plan "loss@a>b=0.5,loss=0.1" with
  | Ok (_, p) ->
    Alcotest.(check int) "narrow-then-broad keeps both rules" 2
      (List.length p.fp_rules)
  | Error e -> Alcotest.failf "narrow-then-broad: %s" e);
  (* same scope merges; distinct times are distinct events *)
  (match Faults.parse_plan "loss=0.05,dup=0.01" with
  | Ok (_, p) -> Alcotest.(check int) "same scope merges" 1 (List.length p.fp_rules)
  | Error e -> Alcotest.failf "merge: %s" e);
  match Faults.parse_plan "crash=hostB@4,recover=hostB@8" with
  | Ok (_, p) ->
    Alcotest.(check int) "crash then later recover is legal" 2
      (List.length p.fp_events)
  | Error e -> Alcotest.failf "crash/recover: %s" e

(* --------------------------------------------------- idempotent bus ops *)

let test_kill_wake_idempotent () =
  let bus = Bus.create ~hosts:Monitor.hosts () in
  (match Bus.register_program bus (Support.parse "module quit;\nproc main() { mh_init(); }") with
  | Ok () -> ()
  | Error e -> Alcotest.failf "register: %s" e);
  (match Bus.spawn bus ~instance:"q" ~module_name:"quit" ~host:"hostA" () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "spawn: %s" e);
  (* never spawned: both must be safe no-ops with an audit trail *)
  Bus.kill bus ~instance:"ghost";
  Bus.wake bus ~instance:"ghost";
  Alcotest.(check bool) "kill audited" true
    (trace_has bus ~category:"audit" ~detail:"kill ignored: no instance ghost");
  Alcotest.(check bool) "wake audited" true
    (trace_has bus ~category:"audit" ~detail:"wake ignored: no instance ghost");
  (* halted: waking must not resurrect *)
  Bus.run_while bus ~max_events:100_000 (fun () ->
      Bus.process_status bus ~instance:"q" <> Some Machine.Halted);
  Bus.wake bus ~instance:"q";
  Alcotest.(check bool) "halted wake audited" true
    (trace_has bus ~category:"audit" ~detail:"wake ignored: q already stopped");
  Alcotest.(check (option bool)) "still halted" (Some true)
    (Option.map (( = ) Machine.Halted) (Bus.process_status bus ~instance:"q"))

(* ------------------------------------------------ transactional scripts *)

let displayed bus =
  List.filter_map Monitor.parse_displayed (Bus.outputs bus ~instance:"display")

let run_until_displays bus k =
  Bus.run_while bus ~max_events:2_000_000 (fun () ->
      List.length (displayed bus) < k)

let test_replace_rolls_back_failed_spawn () =
  (* Regression: the clone spawn fails *after* the target divulged (the
     name is taken). The old code stranded the application — compute
     halted, the clone missing, routes half-rebound. The journal must
     restore the exact pre-script configuration and return compute to
     service with its own image. *)
  let system = Monitor.load () in
  let bus = Monitor.start system in
  run_until_displays bus 2;
  let before = snapshot bus in
  let shown = List.length (displayed bus) in
  (match
     Script.run_sync bus (fun ~on_done ->
         Script.replace bus ~instance:"compute" ~new_instance:"display"
           ~on_done ())
   with
  | Ok _ -> Alcotest.fail "replacement onto a taken name succeeded"
  | Error e -> Alcotest.(check bool) "reports the collision" true (contains "display" e));
  Alcotest.check config "configuration restored" before (snapshot bus);
  Alcotest.(check bool) "rollback traced" true
    (trace_has bus ~category:"rollback" ~detail:"restored instance compute");
  (* the restored compute must actually serve: more readings appear *)
  run_until_displays bus (shown + 2);
  Alcotest.(check bool) "restored compute keeps serving" true
    (List.length (displayed bus) >= shown + 2)

let stuck_bus () =
  (* [stuck]'s only reconfiguration opportunity sits behind a read that
     never receives a message: statically reachable, dynamically not.
     [busy] keeps the event loop hot so only the deadline can end it. *)
  let bus = Bus.create ~hosts:Monitor.hosts () in
  let register source =
    match Bus.register_program bus (Support.parse source) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "register: %s" e
  in
  register
    "module stuck;\nproc main() { var x: int; mh_init(); R: mh_read(\"in\", x); }";
  register "module busy;\nproc main() { mh_init(); while (true) { sleep(1); } }";
  let spawn instance =
    match Bus.spawn bus ~instance ~module_name:instance ~host:"hostA" () with
    | Ok () -> ()
    | Error e -> Alcotest.failf "spawn: %s" e
  in
  spawn "stuck";
  spawn "busy";
  bus

let test_replace_deadline_expires () =
  let bus = stuck_bus () in
  Bus.run ~until:1.0 bus;
  let before = snapshot bus in
  (match
     Script.run_sync bus (fun ~on_done ->
         Script.replace bus ~instance:"stuck" ~new_instance:"s2" ~deadline:5.0
           ~on_done ())
   with
  | Ok _ -> Alcotest.fail "replacement of an unreachable point succeeded"
  | Error e -> Alcotest.(check bool) "reports the deadline" true (contains "deadline" e));
  Alcotest.(check bool) "stopped at the deadline, not the event budget" true
    (Bus.now bus < 100.0);
  Alcotest.check config "configuration restored" before (snapshot bus);
  Alcotest.(check bool) "callback disarmed" true
    (trace_has bus ~category:"rollback" ~detail:"disarmed divulge callback for stuck");
  (* the static analysis rejects the truly unreachable variant outright *)
  let orphan =
    Support.parse
      "module orphan;\nproc lost() { R: skip; }\nproc main() { skip; }"
  in
  match Dr_analysis.Reconfig_graph.build orphan ~points:[ ("lost", "R") ] with
  | Error e -> Alcotest.(check bool) "names the unreachable proc" true (contains "lost" e)
  | Ok _ -> Alcotest.fail "analysis accepted an unreachable point"

let test_replace_retries () =
  let bus = stuck_bus () in
  let retry = { Script.attempts = 2; backoff = 1.0; alt_hosts = [ "hostB" ] } in
  (match
     Script.run_sync bus (fun ~on_done ->
         Script.replace bus ~instance:"stuck" ~new_instance:"s2" ~deadline:3.0
           ~retry ~on_done ())
   with
  | Ok _ -> Alcotest.fail "retry of an unreachable point succeeded"
  | Error _ -> ());
  Alcotest.(check bool) "first attempt traced" true
    (trace_has bus ~category:"script" ~detail:"attempt 1 failed");
  Alcotest.(check bool) "retry targeted the alternate host" true
    (trace_has bus ~category:"script" ~detail:"retrying on hostB");
  (* two deadlines plus one backoff: both attempts rolled back *)
  Alcotest.(check int) "two rollbacks" 2
    (List.length
       (List.filter
          (fun (e : Dr_sim.Trace.entry) ->
            String.equal e.category "rollback" && contains "rolling back" e.detail)
          (Dr_sim.Trace.entries (Bus.trace bus))))

let test_replicate_replica_host_down () =
  let system = Monitor.load () in
  let bus = Monitor.start system in
  run_until_displays bus 2;
  let before = snapshot bus in
  (* hostB dies while the script is waiting for compute to divulge *)
  Dr_sim.Engine.schedule (Bus.engine bus) ~delay:0.01 (fun () ->
      Bus.crash_host bus ~host:"hostB");
  (match
     Script.run_sync bus (fun ~on_done ->
         Script.replicate bus ~instance:"compute" ~replica_instance:"c2"
           ~replica_host:"hostB" ~on_done ())
   with
  | Ok _ -> Alcotest.fail "replicated onto a down host"
  | Error e -> Alcotest.(check bool) "reports the down host" true (contains "down" e));
  (* phase 1 restored the original; phase 2's failure undid only itself *)
  Alcotest.check config "configuration restored" before (snapshot bus);
  let shown = List.length (displayed bus) in
  run_until_displays bus (shown + 2);
  Alcotest.(check bool) "restored compute keeps serving" true
    (List.length (displayed bus) >= shown + 2)

let test_chaos_replace_consistent () =
  (* Acceptance: a replacement attempted during a host crash plus 5%
     message loss either completes or rolls back to the fully routed old
     configuration — for every seed. *)
  for seed = 1 to 10 do
    let system = Ring.load () in
    let plan =
      Ring.chaos_plan ~loss:0.05 ~host_crash:("hostB", 8.5) ()
    in
    let bus = Ring.start_chaos ~seed ~plan system in
    Bus.run ~until:8.0 bus;
    let before = snapshot bus in
    let outcome =
      Script.run_sync bus (fun ~on_done ->
          Script.replace bus ~instance:"c" ~new_instance:"c2" ~deadline:25.0
            ~on_done ())
    in
    (match outcome with
    | Ok _ ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: clone live" seed)
        true
        (List.mem "c2" (Bus.instances bus)
        && not (List.mem "c" (Bus.instances bus)))
    | Error _ ->
      Alcotest.check config
        (Printf.sprintf "seed %d: rolled back to the pre-script config" seed)
        before (snapshot bus));
    (* either way, no route may dangle *)
    let live = Bus.instances bus in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: fully routed" seed)
      true
      (List.for_all
         (fun ((src, dst) : Bus.endpoint * Bus.endpoint) ->
           List.mem (fst src) live && List.mem (fst dst) live)
         (Bus.all_routes bus))
  done

(* ----------------------------------------------------------- double faults *)

module Journal = Dr_reconfig.Journal
module Primitives = Dr_reconfig.Primitives

let compute_cap bus =
  match Primitives.obj_cap bus ~instance:"compute" with
  | Ok cap -> cap
  | Error e -> Alcotest.failf "obj_cap: %s" e

let test_rollback_with_host_down_leaves_crashed () =
  (* The fault that matters arrives *during* the rollback: compute has
     divulged and halted when its host dies. Undoing [note_divulged]
     must not kill the shell and fail the respawn (losing the instance
     outright) — it leaves it for a supervisor and says so. *)
  let system = Monitor.load () in
  let bus = Monitor.start system in
  run_until_displays bus 2;
  let cap = compute_cap bus in
  let j = Journal.create bus ~label:"double-fault" in
  let got = ref None in
  Journal.arm_divulge j ~instance:"compute" (fun image -> got := Some image);
  Bus.signal_reconfig bus ~instance:"compute";
  Bus.run_while bus ~max_events:2_000_000 (fun () -> Option.is_none !got);
  let image = Option.get !got in
  Journal.note_divulged j ~cap ~image
    ~container:(Dr_state.Codec.encode_abstract image);
  let before = snapshot bus in
  Bus.crash_host bus ~host:"hostA";
  Journal.rollback j ~reason:"double fault";
  Alcotest.(check bool) "refuses to restore onto a down host" true
    (trace_has bus ~category:"rollback"
       ~detail:"cannot restore compute: host hostA is down");
  Alcotest.check config "routes and roster untouched" before (snapshot bus)

let test_rollback_respawn_failure_is_traced () =
  (* Journalled kill, then the host dies before the rollback: the undo's
     respawn must fail loudly (traced), not resurrect a phantom. *)
  let system = Monitor.load () in
  let bus = Monitor.start system in
  run_until_displays bus 2;
  let cap = compute_cap bus in
  let j = Journal.create bus ~label:"double-fault" in
  Journal.kill j ~instance:"compute" ~module_name:cap.Primitives.cap_module
    ~host:cap.Primitives.cap_host ();
  Alcotest.(check bool) "killed" false (List.mem "compute" (Bus.instances bus));
  Bus.crash_host bus ~host:cap.Primitives.cap_host;
  Journal.rollback j ~reason:"double fault";
  Alcotest.(check bool) "respawn failure traced" true
    (trace_has bus ~category:"rollback"
       ~detail:"FAILED to restore instance compute");
  Alcotest.(check bool) "no phantom instance" false
    (List.mem "compute" (Bus.instances bus))

(* ------------------------------------------------------------ supervisor *)

let test_supervisor_restarts () =
  let system = Ring.load () in
  let bus = Ring.start system in
  Faults.install bus ~seed:1
    (Faults.plan ~events:[ (5.0, Faults.Process_crash "b") ] ());
  let sup = Supervisor.start bus ~period:1.0 ~watch:[ "b" ] () in
  Bus.run ~until:12.0 bus;
  Alcotest.(check (option string)) "b~1 stands in for b" (Some "b~1")
    (Supervisor.current sup ~base:"b");
  Alcotest.(check bool) "b~1 live, b gone" true
    (List.mem "b~1" (Bus.instances bus) && not (List.mem "b" (Bus.instances bus)));
  (match Supervisor.restarts sup with
  | [ r ] ->
    Alcotest.(check string) "old" "b" r.Supervisor.rs_old;
    Alcotest.(check string) "new" "b~1" r.Supervisor.rs_new
  | l -> Alcotest.failf "expected one restart, got %d" (List.length l));
  Alcotest.(check bool) "supervisor traced" true
    (trace_has bus ~category:"supervisor" ~detail:"restarted b as b~1")

let test_supervisor_fallback_host () =
  let system = Ring.load () in
  let bus = Ring.start system in
  (* c lives on hostB; the whole host dies and stays down *)
  Faults.install bus ~seed:1
    (Faults.plan ~events:[ (5.0, Faults.Host_crash "hostB") ] ());
  let sup =
    Supervisor.start bus ~period:1.0 ~fallback_hosts:[ "hostC" ] ~watch:[ "c" ] ()
  in
  Bus.run ~until:12.0 bus;
  Alcotest.(check (option string)) "restarted on the fallback host"
    (Some "hostC")
    (Bus.instance_host bus ~instance:"c~1");
  ignore sup

let () =
  Alcotest.run "faults"
    [ ( "fault plane",
        [ Alcotest.test_case "host crash and recovery" `Quick
            test_host_crash_and_recover;
          Alcotest.test_case "seeded replay is deterministic" `Quick
            test_chaos_replay_deterministic;
          Alcotest.test_case "parse fault specs" `Quick test_parse_plan;
          Alcotest.test_case "reject malformed and contradictory specs" `Quick
            test_parse_plan_validation ] );
      ( "double faults",
        [ Alcotest.test_case "rollback with the host down" `Quick
            test_rollback_with_host_down_leaves_crashed;
          Alcotest.test_case "rollback respawn failure is traced" `Quick
            test_rollback_respawn_failure_is_traced ] );
      ( "idempotent ops",
        [ Alcotest.test_case "kill/wake on dead instances" `Quick
            test_kill_wake_idempotent ] );
      ( "transactional scripts",
        [ Alcotest.test_case "rollback on failed clone spawn" `Quick
            test_replace_rolls_back_failed_spawn;
          Alcotest.test_case "deadline on unreachable point" `Quick
            test_replace_deadline_expires;
          Alcotest.test_case "retry with alternate host" `Quick
            test_replace_retries;
          Alcotest.test_case "replicate with replica host down" `Quick
            test_replicate_replica_host_down;
          Alcotest.test_case "chaos replace stays consistent" `Quick
            test_chaos_replace_consistent ] );
      ( "supervisor",
        [ Alcotest.test_case "restarts a crashed instance" `Quick
            test_supervisor_restarts;
          Alcotest.test_case "falls back to a live host" `Quick
            test_supervisor_fallback_host ] ) ]
