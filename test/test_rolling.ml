(* Rolling replacement: drain-aware routing, the autonomic wave
   controller, its WAL wave records, and the per-bus detector tunables
   it depends on.

   The acceptance signal throughout is the load generator's
   exactly-once-or-shed accounting: every request is answered exactly
   once or explicitly shed, whatever the wave does. *)

module Bus = Dr_bus.Bus
module Faults = Dr_bus.Faults
module Detector = Dr_reconfig.Detector
module Supervisor = Dr_reconfig.Supervisor
module Rolling = Dr_reconfig.Rolling
module Recovery = Dr_reconfig.Recovery
module Storage = Dr_wal.Storage
module Wal = Dr_wal.Wal
module Kv = Dr_workloads.Kvstore
module Farm = Dr_workloads.Farm

let ok_exn = function Ok v -> v | Error e -> Alcotest.failf "unexpected: %s" e

(* exactly one live instance stands for [slot]: itself or a generation
   [slot@wid.gen] *)
let serving bus ~slot =
  let pfx = slot ^ "@" in
  let plen = String.length pfx in
  match
    List.filter
      (fun inst ->
        inst = slot
        || (String.length inst >= plen && String.sub inst 0 plen = pfx))
      (Bus.instances bus)
  with
  | [ inst ] -> inst
  | insts ->
    Alcotest.failf "slot %s served by [%s]" slot (String.concat "; " insts)

let check_accounting (s : Kv.Loadgen.stats) =
  Alcotest.(check int) "nothing in flight" 0 s.st_inflight;
  Alcotest.(check int) "nothing duplicated" 0 s.st_duplicated;
  Alcotest.(check int) "no strays" 0 s.st_stray;
  Alcotest.(check int) "sent = answered + shed" s.st_sent
    (s.st_answered + s.st_shed)

let deploy ?(n = 3) ?(rate = 4.0) () =
  let bus = Kv.Replica.start ~n (Kv.Replica.load ~n) in
  let group = Kv.Replica.group ~n in
  let lg =
    Kv.Loadgen.start bus
      { Kv.Loadgen.default_conf with lc_rate = rate; lc_duration = 400.0 }
      ~slots:group
  in
  Bus.run ~until:8.0 bus;
  (bus, group, lg)

let quick_cfg ~target =
  { (Rolling.default_config ~target) with
    rc_drain_timeout = 4.0;
    rc_canary_window = 6.0;
    rc_backoff = 1.0 }

let finish bus lg =
  Kv.Loadgen.stop lg;
  Bus.run ~until:(Bus.now bus +. 20.0) bus;
  Kv.Loadgen.stats lg

(* ------------------------------------------------- detector tunables *)

let test_detector_config_validation () =
  let bus = Kv.Replica.start ~n:2 (Kv.Replica.load ~n:2) in
  let check_rejected name cfg =
    match Bus.set_detector_config bus cfg with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s accepted" name
  in
  let d = Bus.default_detector_config in
  check_rejected "zero period" { d with Bus.dc_period = 0.0 };
  check_rejected "negative timeout" { d with Bus.dc_timeout = -1.0 };
  check_rejected "zero threshold" { d with Bus.dc_threshold = 0 };
  (* a NaN period would schedule every beat at NaN and stop the clock *)
  check_rejected "NaN period" { d with Bus.dc_period = nan };
  check_rejected "infinite period" { d with Bus.dc_period = infinity };
  check_rejected "NaN timeout" { d with Bus.dc_timeout = nan };
  check_rejected "infinite timeout" { d with Bus.dc_timeout = infinity };
  let custom = { Bus.dc_period = 0.5; dc_timeout = 2.0; dc_threshold = 3 } in
  Bus.set_detector_config bus custom;
  Alcotest.(check bool) "round-trips" true (Bus.detector_config bus = custom)

let test_detector_uses_bus_config () =
  let bus = Kv.Replica.start ~n:2 (Kv.Replica.load ~n:2) in
  (* halve the heartbeat period on the bus; an unparameterised detector
     must pick it up and emit twice the beats *)
  Bus.set_detector_config bus
    { Bus.default_detector_config with Bus.dc_period = 0.5 };
  let d = Detector.start bus ~watch:[ "s1" ] in
  Bus.run ~until:(Bus.now bus +. 10.0) bus;
  let fast_beats = Detector.beats_emitted d in
  Detector.stop d;
  let bus2 = Kv.Replica.start ~n:2 (Kv.Replica.load ~n:2) in
  let d2 = Detector.start bus2 ~watch:[ "s1" ] in
  Bus.run ~until:(Bus.now bus2 +. 10.0) bus2;
  let default_beats = Detector.beats_emitted d2 in
  Detector.stop d2;
  Alcotest.(check bool)
    (Printf.sprintf "%d beats at period 0.5 vs %d at default" fast_beats
       default_beats)
    true
    (fast_beats >= (2 * default_beats) - 2)

(* Regression: a replace that completes inside ONE heartbeat interval
   must not be flagged by the failure detector. The new generation has
   emitted no heartbeat yet when the supervisor's check runs; adoption
   must reset its evidence rather than inherit the old instance's
   silence. *)
let test_replace_inside_heartbeat_interval () =
  let bus, group, lg = deploy ~n:2 () in
  (* slow heartbeats: the whole per-slot upgrade fits inside one period *)
  Bus.set_detector_config bus
    { Bus.dc_period = 30.0; dc_timeout = 90.0; dc_threshold = 2 };
  let sup = Supervisor.start bus ~watch:(List.map snd group) () in
  let cfg =
    { (quick_cfg ~target:"rstorev2") with
      rc_drain_timeout = 2.0;
      rc_canary_window = 4.0 }
  in
  let report =
    ok_exn
      (Rolling.run bus cfg ~group ~supervisor:sup
         ~on_retarget:(fun ~slot ~instance ->
           Kv.Loadgen.retarget lg ~slot ~instance)
         ())
  in
  Alcotest.(check bool) "committed" true report.Rolling.rp_committed;
  (* no false-positive restart: the upgrades were planned replacements *)
  Alcotest.(check int) "no supervisor restarts" 0
    (List.length (Supervisor.restarts sup));
  List.iter
    (fun (slot, _) ->
      Alcotest.(check (option string))
        (slot ^ " upgraded") (Some "rstorev2")
        (Bus.instance_module bus ~instance:(serving bus ~slot)))
    group;
  check_accounting (finish bus lg)

(* --------------------------------------------- drain-aware routing *)

let test_drain_redirect_and_shed () =
  let bus, group, lg = deploy ~n:3 () in
  Bus.set_drain_group bus ~members:(List.map snd group);
  (* one draining member: siblings absorb, nothing shed *)
  Bus.mark_draining bus ~instance:"s2";
  Alcotest.(check bool) "marked" true (Bus.is_draining bus ~instance:"s2");
  (* resolve_drain rotates among live siblings; assert membership,
     not a specific pick *)
  (match Bus.resolve_drain bus ~instance:"s2" with
  | Some ("s1" | "s3") -> ()
  | other ->
    Alcotest.failf "expected redirect to a live sibling, got %s"
      (Option.value ~default:"<shed>" other));
  Bus.run ~until:(Bus.now bus +. 10.0) bus;
  Alcotest.(check int) "nothing shed with live siblings" 0
    (Kv.Loadgen.stats lg).st_shed;
  (* the whole group draining but alive: members keep serving their own
     traffic rather than dropping it — availability first *)
  List.iter (fun (_, i) -> Bus.mark_draining bus ~instance:i) group;
  Bus.run ~until:(Bus.now bus +. 10.0) bus;
  Alcotest.(check int) "draining-but-alive members self-admit" 0
    (Kv.Loadgen.stats lg).st_shed;
  (* the group shrinks mid-drain: the addressed member dies while every
     sibling is draining-but-alive. The cursor scan used to shed here —
     skipping live siblings — which the model checker flagged; traffic
     must fall through to an alive sibling instead (availability first,
     same rationale as self-admission above) *)
  Bus.crash_process bus ~instance:"s2" ~reason:"test kill";
  (match Bus.resolve_drain bus ~instance:"s2" with
  | Some ("s1" | "s3") -> ()
  | other ->
    Alcotest.failf "expected fallthrough to an alive sibling, got %s"
      (Option.value ~default:"<shed>" other));
  Bus.run ~until:(Bus.now bus +. 10.0) bus;
  Alcotest.(check int) "nothing shed while a live sibling exists" 0
    (Kv.Loadgen.stats lg).st_shed;
  (* only when no member is alive at all does admission control shed
     explicitly instead of queueing against corpses *)
  Bus.crash_process bus ~instance:"s1" ~reason:"test kill";
  Bus.crash_process bus ~instance:"s3" ~reason:"test kill";
  Bus.run ~until:(Bus.now bus +. 10.0) bus;
  let s = Kv.Loadgen.stats lg in
  Alcotest.(check bool)
    (Printf.sprintf "shed > 0 (got %d)" s.st_shed)
    true (s.st_shed > 0);
  List.iter (fun (_, i) -> Bus.clear_draining bus ~instance:i) group;
  Alcotest.(check (list string)) "marks cleared" []
    (Bus.draining_instances bus);
  (* crashing every serving member deliberately strands whatever was in
     flight to them, so "nothing in flight" does not apply here; the
     ledger must still close and nothing may be duplicated *)
  let s = finish bus lg in
  Alcotest.(check int) "nothing duplicated" 0 s.st_duplicated;
  Alcotest.(check int) "no strays" 0 s.st_stray;
  Alcotest.(check int) "ledger closes" s.st_sent
    (s.st_answered + s.st_shed + s.st_inflight)

(* The farm exercises the ROUTED delivery path (the kvstore loadgen
   injects directly): jobs round-robinned to a draining worker must be
   absorbed by its siblings, and every job must still complete exactly
   once. *)
let test_farm_routed_drain () =
  let bus = Farm.start (Farm.load ()) in
  Bus.run ~until:2.0 bus;
  ignore (ok_exn (Farm.scale_out bus ~slot:2 ~host:"hostB"));
  ignore (ok_exn (Farm.scale_out bus ~slot:3 ~host:"hostC"));
  let members = Farm.worker_drain_group bus in
  Alcotest.(check (list string)) "group" [ "w1"; "w2"; "w3" ] members;
  Bus.mark_draining bus ~instance:"w2";
  Bus.run ~until:200.0 bus;
  Alcotest.(check (list int)) "every job exactly once" Farm.expected_results
    (List.sort compare (Farm.results bus))

(* ------------------------------------------------- the wave itself *)

let test_wave_commits_under_traffic () =
  let bus, group, lg = deploy () in
  let report =
    ok_exn
      (Rolling.run bus
         (quick_cfg ~target:"rstorev2")
         ~group
         ~on_retarget:(fun ~slot ~instance ->
           Kv.Loadgen.retarget lg ~slot ~instance)
         ())
  in
  Alcotest.(check bool) "committed" true report.Rolling.rp_committed;
  List.iter
    (fun rr ->
      match rr.Rolling.rr_outcome with
      | Rolling.Upgraded _ -> ()
      | _ -> Alcotest.failf "%s not upgraded" rr.Rolling.rr_slot)
    report.Rolling.rp_replicas;
  let s = finish bus lg in
  Alcotest.(check int) "no wrong answers" 0 s.st_wrong;
  check_accounting s

let test_bad_canary_rolls_back_and_aborts () =
  let bus, group, lg = deploy () in
  let report =
    ok_exn
      (Rolling.run bus
         { (quick_cfg ~target:"rstorebad") with rc_retries = 2 }
         ~group
         ~on_retarget:(fun ~slot ~instance ->
           Kv.Loadgen.retarget lg ~slot ~instance)
         ())
  in
  Alcotest.(check bool) "aborted" false report.Rolling.rp_committed;
  (match report.Rolling.rp_replicas with
  | first :: rest ->
    (match first.Rolling.rr_outcome with
    | Rolling.Rolled_back _ ->
      Alcotest.(check int) "both attempts canaried" 2 first.Rolling.rr_attempts
    | _ -> Alcotest.fail "first slot not rolled back");
    List.iter
      (fun rr ->
        Alcotest.(check bool)
          (rr.Rolling.rr_slot ^ " skipped")
          true
          (rr.Rolling.rr_outcome = Rolling.Skipped))
      rest
  | [] -> Alcotest.fail "empty report");
  (* the fleet is back on the original build, one generation per slot *)
  List.iter
    (fun (slot, _) ->
      Alcotest.(check (option string))
        (slot ^ " on v1") (Some "rstore")
        (Bus.instance_module bus ~instance:(serving bus ~slot)))
    group;
  let s = finish bus lg in
  Alcotest.(check bool)
    (Printf.sprintf "bad build answered wrongly (%d)" s.st_wrong)
    true (s.st_wrong > 0);
  check_accounting s

(* Supervisor x rolling: a crash injected into the OLD generation
   mid-drain is restarted fenced by the supervisor; the wave re-resolves
   the slot and upgrades it exactly once — no double replacement. *)
let test_crash_mid_drain_single_replacement () =
  let bus, group, lg = deploy () in
  let sup = Supervisor.start bus ~watch:(List.map snd group) () in
  (* the wave starts at ~8.0 and drains s1 first; kill s1 inside the
     drain's settle chunk (8.0..8.5) so the crash lands mid-drain *)
  Faults.install bus ~seed:7
    (Faults.plan ~events:[ (8.3, Faults.Process_crash "s1") ] ());
  let report =
    ok_exn
      (Rolling.run bus
         (quick_cfg ~target:"rstorev2")
         ~group ~supervisor:sup
         ~on_retarget:(fun ~slot ~instance ->
           Kv.Loadgen.retarget lg ~slot ~instance)
         ())
  in
  Alcotest.(check bool) "committed" true report.Rolling.rp_committed;
  (* the supervisor did restart the crashed generation... *)
  (match Supervisor.restarts sup with
  | [ r ] -> Alcotest.(check string) "victim" "s1" r.Supervisor.rs_old
  | rs -> Alcotest.failf "%d restart(s), expected 1" (List.length rs));
  (* ...and the wave upgraded the slot once, through the restarted
     generation: exactly one live instance serves s1, on the target *)
  Alcotest.(check (option string)) "s1 upgraded once" (Some "rstorev2")
    (Bus.instance_module bus ~instance:(serving bus ~slot:"s1"));
  check_accounting (finish bus lg)

(* ------------------------------------------------- WAL wave records *)

let test_ctl_crash_mid_wave_recovers () =
  let bus, group, lg = deploy () in
  let mem = Storage.memory () in
  Bus.set_wal bus (ok_exn (Wal.create (Storage.storage_of_mem mem)));
  (* die inside the second slot's replace: slot 1 is durably done *)
  Bus.arm_ctl_crash bus ~after:9;
  (match
     Rolling.run bus
       (quick_cfg ~target:"rstorev2")
       ~group
       ~on_retarget:(fun ~slot ~instance ->
         Kv.Loadgen.retarget lg ~slot ~instance)
       ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wave survived an armed controller crash");
  Alcotest.(check bool) "controller down" true (Bus.controller_down bus);
  (* controller memory is gone: reopen the log from (synced) storage *)
  Storage.crash mem;
  Bus.set_wal bus (ok_exn (Wal.create (Storage.storage_of_mem mem)));
  let _report, waves = ok_exn (Rolling.recover bus) in
  (match waves with
  | [ w ] ->
    Alcotest.(check bool) "wave reported open" true
      (w.Recovery.wv_status = Recovery.Wave_open);
    Alcotest.(check string) "target" "rstorev2" w.Recovery.wv_target
  | ws -> Alcotest.failf "%d wave(s) in the log, expected 1" (List.length ws));
  Alcotest.(check (list string)) "drain marks cleared" []
    (Bus.draining_instances bus);
  (* consistent roster: every slot wholly on one generation, serving *)
  List.iter
    (fun (slot, _) ->
      let inst = serving bus ~slot in
      match Bus.instance_module bus ~instance:inst with
      | Some ("rstore" | "rstorev2") -> Kv.Loadgen.retarget lg ~slot ~instance:inst
      | m ->
        Alcotest.failf "%s serves %s" slot
          (Option.value ~default:"?" m))
    group;
  (* and traffic keeps flowing cleanly on the held roster *)
  Bus.run ~until:(Bus.now bus +. 15.0) bus;
  let s = finish bus lg in
  Alcotest.(check int) "no wrong answers" 0 s.st_wrong;
  check_accounting s

let test_wave_records_survive_in_recovery_scan () =
  let bus, group, lg = deploy ~n:2 () in
  let mem = Storage.memory () in
  let wal = ok_exn (Wal.create (Storage.storage_of_mem mem)) in
  Bus.set_wal bus wal;
  let report =
    ok_exn
      (Rolling.run bus
         { (quick_cfg ~target:"rstorev2") with rc_drain_timeout = 2.0 }
         ~group
         ~on_retarget:(fun ~slot ~instance ->
           Kv.Loadgen.retarget lg ~slot ~instance)
         ())
  in
  Alcotest.(check bool) "committed" true report.Rolling.rp_committed;
  (* the committed wave's records are still scannable before checkpoint *)
  (match Recovery.waves wal with
  | Ok [ w ] ->
    Alcotest.(check bool) "committed status" true
      (w.Recovery.wv_status = Recovery.Wave_committed);
    Alcotest.(check int) "both slots durably done" 2
      (List.length w.Recovery.wv_done)
  | Ok ws -> Alcotest.failf "%d wave(s), expected 1" (List.length ws)
  | Error e -> Alcotest.fail e);
  check_accounting (finish bus lg)

(* ------------------------------------------------------- validation *)

let test_run_rejects_bad_config () =
  let bus, group, lg = deploy ~n:2 () in
  let expect_error name cfg =
    match Rolling.run bus cfg ~group () with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" name
  in
  let good = quick_cfg ~target:"rstorev2" in
  expect_error "zero retries" { good with Rolling.rc_retries = 0 };
  expect_error "negative backoff" { good with Rolling.rc_backoff = -1.0 };
  expect_error "unknown target" { good with Rolling.rc_target = "nosuch" };
  (* Non-finite durations are refused by validation, which runs before
     the group is looked at: the unknown member below is never reached,
     so no wave starts and the bus does not run. *)
  let expect_invalid name cfg =
    match Rolling.run bus cfg ~group:[ ("sx", "sx") ] () with
    | Error e when String.ends_with ~suffix:"and finite" e -> ()
    | Error e -> Alcotest.failf "%s got past validation: %s" name e
    | Ok _ -> Alcotest.failf "%s accepted" name
  in
  List.iter
    (fun (what, v) ->
      expect_invalid (what ^ " drain timeout")
        { good with Rolling.rc_drain_timeout = v };
      expect_invalid (what ^ " canary window")
        { good with Rolling.rc_canary_window = v };
      expect_invalid (what ^ " backoff") { good with Rolling.rc_backoff = v })
    [ ("NaN", nan); ("infinite", infinity) ];
  (* a rate that is not positive and finite would stop the clock (a
     zero delay between requests) or send nothing *)
  List.iter
    (fun rate ->
      match
        Kv.Loadgen.start bus
          { Kv.Loadgen.default_conf with lc_rate = rate }
          ~slots:group
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "load generator accepted rate %g" rate)
    [ 0.0; -1.0; nan; infinity ];
  (match Rolling.run bus good ~group:[ ("sx", "sx") ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown group member accepted");
  check_accounting (finish bus lg)

let () =
  Alcotest.run "rolling"
    [ ( "detector-config",
        [ Alcotest.test_case "validation" `Quick test_detector_config_validation;
          Alcotest.test_case "bus tunables" `Quick test_detector_uses_bus_config;
          Alcotest.test_case "replace inside one heartbeat" `Quick
            test_replace_inside_heartbeat_interval ] );
      ( "drain",
        [ Alcotest.test_case "redirect and shed" `Quick
            test_drain_redirect_and_shed;
          Alcotest.test_case "farm routed path" `Quick test_farm_routed_drain ]
      );
      ( "wave",
        [ Alcotest.test_case "commits under traffic" `Quick
            test_wave_commits_under_traffic;
          Alcotest.test_case "bad canary aborts" `Quick
            test_bad_canary_rolls_back_and_aborts;
          Alcotest.test_case "crash mid-drain, single replacement" `Quick
            test_crash_mid_drain_single_replacement ] );
      ( "wal",
        [ Alcotest.test_case "ctl crash mid-wave recovers" `Quick
            test_ctl_crash_mid_wave_recovers;
          Alcotest.test_case "wave records scan" `Quick
            test_wave_records_survive_in_recovery_scan ] );
      ( "validation",
        [ Alcotest.test_case "bad config rejected" `Quick
            test_run_rejects_bad_config ] ) ]
