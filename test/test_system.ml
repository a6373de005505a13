module System = Dynrecon.System
module Bus = Dr_bus.Bus
module Machine = Dr_interp.Machine

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ----------------------------------------------------------- loading *)

let test_load_monitor () =
  let system = Dr_workloads.Monitor.load () in
  Alcotest.(check int) "four modules" 4 (List.length system.modules);
  let compute = Option.get (System.find_module system "compute") in
  Alcotest.(check bool) "compute prepared" true (compute.lm_prepared <> None);
  let sensor = Option.get (System.find_module system "sensor") in
  Alcotest.(check bool) "sensor untouched" true (sensor.lm_prepared = None)

let test_instrumented_source_is_fig4_shaped () =
  let system = Dr_workloads.Monitor.load () in
  let source = Option.get (System.instrumented_source system "compute") in
  List.iter
    (fun fragment ->
      if not (contains fragment source) then
        Alcotest.failf "instrumented source lacks %S" fragment)
    [ "mh_reconfig"; "mh_capturestack"; "mh_restoring"; "mh_location";
      "mh_catchreconfig"; "mh_getstatus() == \"clone\""; "mh_decode();";
      "mh_capture("; "mh_restore(mh_location"; "mh_encode();";
      "signal(\"mh_catchreconfig\");"; "goto R;" ]

let expect_load_error ~mil ~sources fragment =
  match System.load ~mil ~sources () with
  | Ok _ -> Alcotest.failf "expected load failure (%s)" fragment
  | Error e ->
    if not (contains fragment e) then
      Alcotest.failf "error %S lacks %S" e fragment

let test_load_errors () =
  let m = Dr_workloads.Monitor.mil in
  expect_load_error ~mil:"module {" ~sources:[] "parse error";
  expect_load_error ~mil:m ~sources:[] "no source provided";
  expect_load_error ~mil:m
    ~sources:
      (("sensor", "module wrong_name;\nproc main() { }")
      :: List.remove_assoc "sensor" Dr_workloads.Monitor.sources)
    "declares module wrong_name";
  expect_load_error ~mil:m
    ~sources:
      (("compute", "module compute;\nproc main() { y = 1; }")
      :: List.remove_assoc "compute" Dr_workloads.Monitor.sources)
    "unbound variable";
  (* a spec point without a matching label *)
  expect_load_error ~mil:m
    ~sources:
      (("compute",
        "module compute;\nproc main() { var r: float; mh_init(); mh_write(\"display\", r); }")
      :: List.remove_assoc "compute" Dr_workloads.Monitor.sources)
    "no matching label";
  (* a global initialiser runs before its instance has a queue *)
  expect_load_error ~mil:m
    ~sources:
      (("sensor",
        "module sensor;\nvar q: bool = mh_query(\"in\");\nproc main() { }")
      :: List.remove_assoc "sensor" Dr_workloads.Monitor.sources)
    "global q: initialiser may not read an interface";
  (* a numeral beyond max_int is a lexical error, not an escaping Failure *)
  match
    System.load ~mil:m
      ~sources:
        (("sensor", "module sensor;\nvar x: int = 99999999999999999999;\nproc main() { }")
        :: List.remove_assoc "sensor" Dr_workloads.Monitor.sources)
      ()
  with
  | Ok _ -> Alcotest.fail "loaded an out-of-range numeral"
  | Error e ->
    Alcotest.(check string) "out-of-range numeral"
      "sensor: lexical error at line 2: integer literal 99999999999999999999 is \
       out of range"
      e

(* ------------------------------------------------------------ running *)

let displayed bus =
  List.filter_map Dr_workloads.Monitor.parse_displayed
    (Bus.outputs bus ~instance:"display")

let test_monitor_end_to_end_migration () =
  let system = Dr_workloads.Monitor.load () in
  let bus = Dr_workloads.Monitor.start system in
  Bus.run ~until:30.0 bus;
  let before = List.length (displayed bus) in
  Alcotest.(check bool) "some averages before" true (before >= 2);
  (match System.migrate bus ~instance:"compute" ~new_instance:"compute2" ~new_host:"hostB" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate: %s" e);
  Bus.run ~until:(Bus.now bus +. 40.0) bus;
  let after = displayed bus in
  Alcotest.(check bool) "more averages after" true (List.length after > before);
  Alcotest.(check bool) "all plausible" true
    (Dr_workloads.Monitor.averages_plausible ~n:4 (List.map snd after));
  Alcotest.(check (option string)) "on hostB" (Some "hostB")
    (Bus.instance_host bus ~instance:"compute2")

let test_monitor_migration_with_liveness_option () =
  let system =
    Dr_workloads.Monitor.load ~options:{ Dr_transform.Instrument.default_options with use_liveness = true } ()
  in
  let bus = Dr_workloads.Monitor.start system in
  Bus.run ~until:30.0 bus;
  (match System.migrate bus ~instance:"compute" ~new_instance:"c2" ~new_host:"hostC" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate: %s" e);
  Bus.run ~until:(Bus.now bus +. 40.0) bus;
  Alcotest.(check bool) "still correct with trimmed capture sets" true
    (Dr_workloads.Monitor.averages_plausible ~n:4 (List.map snd (displayed bus)))

let test_pipeline_stage_replacement () =
  let system = Dr_workloads.Pipeline.load () in
  let bus = Dr_workloads.Pipeline.start system in
  Bus.run_while bus ~max_events:2_000_000 (fun () ->
      List.length (Dr_workloads.Pipeline.sink_values bus) < 4);
  (* replace the scale stage mid-stream *)
  (match System.replace bus ~instance:"scale" ~new_instance:"scale2" () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "replace: %s" e);
  Bus.run_while bus ~max_events:2_000_000 (fun () ->
      List.length (Dr_workloads.Pipeline.sink_values bus) < 10);
  let values = Dr_workloads.Pipeline.sink_values bus in
  Alcotest.(check (list int)) "no item lost, duplicated or reordered"
    (Dr_workloads.Pipeline.expected_prefix 10)
    values;
  (* the processed counter survived into the clone *)
  match Bus.machine bus ~instance:"scale2" with
  | Some m ->
    (match Machine.read_global m "processed" with
    | Some (Dr_state.Value.Vint n) ->
      Alcotest.(check bool) "counter continued (not reset)" true (n >= 4)
    | _ -> Alcotest.fail "no counter")
  | None -> Alcotest.fail "scale2 missing"

let test_pipeline_migrate_offset_stage () =
  let system = Dr_workloads.Pipeline.load () in
  let bus = Dr_workloads.Pipeline.start system in
  Bus.run_while bus ~max_events:2_000_000 (fun () ->
      List.length (Dr_workloads.Pipeline.sink_values bus) < 3);
  (match System.migrate bus ~instance:"offset" ~new_instance:"offset2" ~new_host:"hostC" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate: %s" e);
  Bus.run_while bus ~max_events:2_000_000 (fun () ->
      List.length (Dr_workloads.Pipeline.sink_values bus) < 8);
  Alcotest.(check (list int)) "stream intact across migration"
    (Dr_workloads.Pipeline.expected_prefix 8)
    (Dr_workloads.Pipeline.sink_values bus)

let test_kvstore_migration_preserves_heap () =
  let system = Dr_workloads.Kvstore.load () in
  let bus = Dr_workloads.Kvstore.start system in
  Bus.run_while bus ~max_events:2_000_000 (fun () ->
      List.length (Dr_workloads.Kvstore.client_got bus) < 3);
  let before = Dr_workloads.Kvstore.client_got bus in
  (* move the store from x86_64 to big-endian sparc32 *)
  (match System.migrate bus ~instance:"store" ~new_instance:"store2" ~new_host:"hostC" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate: %s" e);
  Bus.run_while bus ~max_events:2_000_000 (fun () ->
      List.length (Dr_workloads.Kvstore.client_got bus) < List.length before + 4);
  let got = Dr_workloads.Kvstore.client_got bus in
  Alcotest.(check bool) "got more replies after migration" true
    (List.length got > List.length before);
  (* every reply correct: value = key * 7 — including keys written
     before the migration and read after it *)
  List.iter
    (fun (k, v) ->
      if v <> k * 7 then Alcotest.failf "wrong value for %d: %d" k v)
    got

let test_replicate_through_facade () =
  let system = Dr_workloads.Monitor.load () in
  let bus = Dr_workloads.Monitor.start system in
  Bus.run ~until:15.0 bus;
  (match System.replicate bus ~instance:"compute" ~replica_instance:"compute_r" () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "replicate: %s" e);
  Alcotest.(check bool) "both incarnations live" true
    (List.mem "compute" (Bus.instances bus)
    && List.mem "compute_r" (Bus.instances bus))

let test_migration_during_burst () =
  (* saturate compute with requests, then migrate mid-burst *)
  let system = Dr_workloads.Monitor.load () in
  let bus = Dr_workloads.Monitor.start system in
  Bus.run ~until:12.0 bus;
  for _ = 1 to 5 do
    Bus.inject bus ~dst:("compute", "display") (Dr_state.Value.Vint 4)
  done;
  (match System.migrate bus ~instance:"compute" ~new_instance:"c2" ~new_host:"hostB" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate: %s" e);
  Bus.run ~until:(Bus.now bus +. 60.0) bus;
  (* responses to the burst arrive (display only reads one per cycle but
     compute should have answered every queued request without crashing) *)
  Alcotest.(check bool) "clone healthy" true
    (match Bus.process_status bus ~instance:"c2" with
    | Some (Machine.Crashed _) | None -> false
    | Some _ -> true)

let test_double_migration_end_to_end () =
  let system = Dr_workloads.Monitor.load () in
  let bus = Dr_workloads.Monitor.start system in
  Bus.run ~until:20.0 bus;
  (match System.migrate bus ~instance:"compute" ~new_instance:"c2" ~new_host:"hostB" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first migrate: %s" e);
  Bus.run ~until:(Bus.now bus +. 20.0) bus;
  (match System.migrate bus ~instance:"c2" ~new_instance:"c3" ~new_host:"hostC" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "second migrate: %s" e);
  Bus.run ~until:(Bus.now bus +. 30.0) bus;
  Alcotest.(check (option string)) "ended on hostC" (Some "hostC")
    (Bus.instance_host bus ~instance:"c3");
  Alcotest.(check bool) "averages correct throughout" true
    (Dr_workloads.Monitor.averages_plausible ~n:4 (List.map snd (displayed bus)))

let test_token_ring_invariant () =
  let system = Dr_workloads.Ring.load () in
  let bus = Dr_workloads.Ring.start system in
  Bus.run ~until:25.0 bus;
  (match
     Dr_workloads.Ring.insert_member bus ~instance:"d" ~host:"hostC" ~after:"a"
       ~before:"b"
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "insert: %s" e);
  Bus.run ~until:(Bus.now bus +. 25.0) bus;
  let b_passes_before = Dr_workloads.Ring.passes bus ~instance:"b" in
  (match System.migrate bus ~instance:"b" ~new_instance:"b2" ~new_host:"hostC" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate: %s" e);
  Bus.run ~until:(Bus.now bus +. 25.0) bus;
  Alcotest.(check bool) "b2 counter continued" true
    (Dr_workloads.Ring.passes bus ~instance:"b2" >= b_passes_before);
  Dr_workloads.Ring.bypass_member bus ~instance:"c" ~pred:"b2" ~succ:"a";
  Bus.run ~until:(Bus.now bus +. 15.0) bus;
  Dr_reconfig.Script.remove_module bus ~instance:"c";
  Bus.run ~until:(Bus.now bus +. 15.0) bus;
  let history = Dr_workloads.Ring.tap_history bus in
  Alcotest.(check bool) "enough circulation" true (List.length history > 20);
  Alcotest.(check bool) "token never lost, duplicated or reordered" true
    (Dr_workloads.Ring.history_consecutive history)

let test_worker_farm_exactly_once () =
  let system = Dr_workloads.Farm.load () in
  let bus = Dr_workloads.Farm.start system in
  Bus.run ~until:10.0 bus;
  (match Dr_workloads.Farm.scale_out bus ~slot:2 ~host:"hostB" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "scale out: %s" e);
  (match Dr_workloads.Farm.scale_out bus ~slot:3 ~host:"hostC" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "scale out: %s" e);
  Bus.run ~until:(Bus.now bus +. 8.0) bus;
  (match
     System.migrate bus ~instance:"dispatcher" ~new_instance:"d2" ~new_host:"hostC"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate dispatcher: %s" e);
  Bus.run ~until:(Bus.now bus +. 10.0) bus;
  Dr_workloads.Farm.scale_in bus;
  Bus.run_while bus ~max_events:3_000_000 (fun () ->
      List.length (Dr_workloads.Farm.results bus) < Dr_workloads.Farm.job_count);
  Alcotest.(check (list int)) "every job exactly once"
    Dr_workloads.Farm.expected_results
    (List.sort compare (Dr_workloads.Farm.results bus));
  (* slot counter survived the dispatcher migration *)
  match Bus.machine bus ~instance:"d2" with
  | Some m -> (
    match Machine.read_global m "active" with
    | Some (Dr_state.Value.Vint n) ->
      Alcotest.(check bool) "active slots restored then lowered" true (n >= 1)
    | _ -> Alcotest.fail "no active counter")
  | None -> Alcotest.fail "migrated dispatcher missing"

let test_replace_without_points_times_out () =
  (* the sensor module has no reconfiguration points: it can never
     divulge state, so a replacement script cannot complete *)
  let system = Dr_workloads.Monitor.load () in
  let bus = Dr_workloads.Monitor.start system in
  Bus.run ~until:10.0 bus;
  match
    Dr_reconfig.Script.run_sync bus ~max_events:20_000 (fun ~on_done ->
        Dr_reconfig.Script.replace bus ~instance:"sensor" ~new_instance:"s2"
          ~on_done ())
  with
  | Error e ->
    Alcotest.(check bool) "did not complete" true
      (contains "did not complete" e);
    (* and the application is unharmed *)
    Alcotest.(check bool) "sensor still running" true
      (List.mem "sensor" (Bus.instances bus))
  | Ok _ -> Alcotest.fail "replacement of a point-less module succeeded?"

let test_replace_unknown_instance () =
  let system = Dr_workloads.Monitor.load () in
  let bus = Dr_workloads.Monitor.start system in
  match
    Dr_reconfig.Script.run_sync bus (fun ~on_done ->
        Dr_reconfig.Script.replace bus ~instance:"ghost" ~new_instance:"g2"
          ~on_done ())
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected failure"

let test_load_with_optimize () =
  (* the whole monitor pipeline still works with the optimiser enabled *)
  let system =
    match
      Dynrecon.System.load ~mil:Dr_workloads.Monitor.mil
        ~sources:Dr_workloads.Monitor.sources ~optimize:true ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "load with optimize: %s" e
  in
  let bus =
    match
      Dynrecon.System.start system ~app:"monitor"
        ~hosts:Dr_workloads.Monitor.hosts ~default_host:"hostA" ()
    with
    | Ok bus -> bus
    | Error e -> Alcotest.failf "start: %s" e
  in
  Bus.run ~until:30.0 bus;
  (match System.migrate bus ~instance:"compute" ~new_instance:"c2" ~new_host:"hostB" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate: %s" e);
  Bus.run ~until:(Bus.now bus +. 30.0) bus;
  Alcotest.(check bool) "correct with optimiser on" true
    (Dr_workloads.Monitor.averages_plausible ~n:4 (List.map snd (displayed bus)))

let test_crash_after_signal_never_completes () =
  (* a module that crashes on its way to the reconfiguration point never
     divulges: the script times out and the rest of the application is
     unharmed *)
  let mil =
    {|
module doomed {
  use interface in pattern {integer};
  reconfiguration point R;
}
application app { instance doomed on "hostA"; }
|}
  in
  let source =
    {|
module doomed;

var countdown: int = 3;

proc main() {
  var x: int;
  mh_init();
  while (true) {
    R: sleep(1);
    countdown = countdown - 1;
    if (countdown == 0) {
      x = 1 / (countdown * 0);
    }
  }
}
|}
  in
  let system =
    match Dynrecon.System.load ~mil ~sources:[ ("doomed", source) ] () with
    | Ok s -> s
    | Error e -> Alcotest.failf "load: %s" e
  in
  let bus =
    match
      Dynrecon.System.start system ~app:"app" ~hosts:Dr_workloads.Monitor.hosts ()
    with
    | Ok bus -> bus
    | Error e -> Alcotest.failf "start: %s" e
  in
  (* let it run to just before the crash, then ask for a replacement at
     the exact moment it is about to die *)
  Bus.run ~until:2.5 bus;
  (* force the crash before the next point passage: exhaust countdown *)
  Bus.run ~until:10.0 bus;
  (match Bus.process_status bus ~instance:"doomed" with
  | Some (Machine.Crashed _) -> ()
  | s ->
    Alcotest.failf "expected crashed module, got %s"
      (match s with
      | Some s -> Fmt.str "%a" Machine.pp_status s
      | None -> "gone"));
  match
    Dr_reconfig.Script.run_sync bus ~max_events:5_000 (fun ~on_done ->
        Dr_reconfig.Script.replace bus ~instance:"doomed" ~new_instance:"d2"
          ~on_done ())
  with
  | Error e ->
    Alcotest.(check bool) "script reports non-completion" true
      (contains "did not complete" e)
  | Ok _ -> Alcotest.fail "replacement of a crashed module completed?"

let test_malformed_image_crashes_clone () =
  (* restoring a wrong-shaped image must crash the clone cleanly, not
     corrupt it silently *)
  let system = Dr_workloads.Monitor.load () in
  let compute = Option.get (System.find_module system "compute") in
  let program = System.deployed_program compute in
  let sio_io = Dr_interp.Io_intf.null () in
  let clone = Dr_interp.Machine.create ~status_attr:"clone" ~io:sio_io program in
  let bogus =
    Dr_state.Image.make ~source_module:"compute"
      ~records:
        [ { Dr_state.Image.location = 1; values = [| Dr_state.Value.Vint 7 |] } ]
      ~heap:[]
  in
  Dr_interp.Machine.feed_image clone bogus;
  Dr_interp.Machine.run ~max_steps:100_000 clone;
  match Dr_interp.Machine.status clone with
  | Dr_interp.Machine.Crashed message ->
    Alcotest.(check bool) "mentions record shape" true
      (contains "values" message || contains "restore" message)
  | s ->
    Alcotest.failf "expected crash, got %a" Dr_interp.Machine.pp_status s

let () =
  Alcotest.run "system"
    [ ( "loading",
        [ Alcotest.test_case "monitor loads" `Quick test_load_monitor;
          Alcotest.test_case "instrumented source" `Quick
            test_instrumented_source_is_fig4_shaped;
          Alcotest.test_case "load errors" `Quick test_load_errors ] );
      ( "end to end",
        [ Alcotest.test_case "monitor migration" `Quick
            test_monitor_end_to_end_migration;
          Alcotest.test_case "with liveness trimming" `Quick
            test_monitor_migration_with_liveness_option;
          Alcotest.test_case "pipeline replacement" `Quick
            test_pipeline_stage_replacement;
          Alcotest.test_case "pipeline migration" `Quick
            test_pipeline_migrate_offset_stage;
          Alcotest.test_case "kv heap migration" `Quick
            test_kvstore_migration_preserves_heap;
          Alcotest.test_case "replicate" `Quick test_replicate_through_facade;
          Alcotest.test_case "burst" `Quick test_migration_during_burst;
          Alcotest.test_case "double migration" `Quick
            test_double_migration_end_to_end;
          Alcotest.test_case "token ring invariant" `Quick
            test_token_ring_invariant;
          Alcotest.test_case "worker farm exactly-once" `Quick
            test_worker_farm_exactly_once ] );
      ( "options",
        [ Alcotest.test_case "load with optimize" `Quick test_load_with_optimize ] );
      ( "failure paths",
        [ Alcotest.test_case "point-less module times out" `Quick
            test_replace_without_points_times_out;
          Alcotest.test_case "crash after signal" `Quick
            test_crash_after_signal_never_completes;
          Alcotest.test_case "unknown instance" `Quick test_replace_unknown_instance;
          Alcotest.test_case "malformed image" `Quick
            test_malformed_image_crashes_clone ] ) ]
