module Bus = Dr_bus.Bus
module P = Dr_reconfig.Primitives
module Script = Dr_reconfig.Script
module Machine = Dr_interp.Machine

let monitor () =
  let system = Dr_workloads.Monitor.load () in
  Dr_workloads.Monitor.start system

let displayed bus =
  List.filter_map Dr_workloads.Monitor.parse_displayed
    (Bus.outputs bus ~instance:"display")

let run_until_displays bus k =
  Bus.run_while bus ~max_events:2_000_000 (fun () ->
      List.length (displayed bus) < k)

let test_obj_cap () =
  let bus = monitor () in
  match P.obj_cap bus ~instance:"compute" with
  | Error e -> Alcotest.failf "obj_cap: %s" e
  | Ok cap ->
    Alcotest.(check string) "module" "compute" cap.cap_module;
    Alcotest.(check string) "host" "hostA" cap.cap_host;
    Alcotest.(check (list string)) "ifaces" [ "display"; "sensor" ] cap.cap_ifaces;
    Alcotest.(check int) "one outgoing route (reply to display)" 1
      (List.length cap.cap_out_routes);
    Alcotest.(check int) "two incoming routes" 2 (List.length cap.cap_in_routes)

let test_obj_cap_missing () =
  let bus = monitor () in
  match P.obj_cap bus ~instance:"ghost" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let test_rebind_batch_applies_atomically () =
  let bus = monitor () in
  let batch = P.bind_cap () in
  P.edit_bind batch (P.Del (("sensor", "out"), ("compute", "sensor")));
  P.edit_bind batch (P.Add (("sensor", "out"), ("elsewhere", "sensor")));
  Alcotest.(check int) "batch holds two commands" 2
    (List.length (P.batch_commands batch));
  (* nothing applied yet *)
  Alcotest.(check (list (pair string string))) "untouched before rebind"
    [ ("compute", "sensor") ]
    (Bus.routes_from bus ("sensor", "out"));
  P.rebind bus batch;
  Alcotest.(check (list (pair string string))) "applied after rebind"
    [ ("elsewhere", "sensor") ]
    (Bus.routes_from bus ("sensor", "out"))

let test_translate_image_across_hosts () =
  let bus = monitor () in
  let image =
    Dr_state.Image.make ~source_module:"compute"
      ~records:
        [ { Dr_state.Image.location = 1; values = [ Dr_state.Value.Vint 7 ] } ]
      ~heap:[]
  in
  (match P.translate_image bus ~src_host:"hostA" ~dst_host:"hostB" image with
  | Ok translated -> Alcotest.check Support.image "identical" image translated
  | Error e -> Alcotest.failf "translate: %s" e);
  match P.translate_image bus ~src_host:"hostA" ~dst_host:"nohost" image with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown host accepted"

let test_translate_overflow_fails () =
  let bus = monitor () in
  let image =
    Dr_state.Image.make ~source_module:"compute"
      ~records:
        [ { Dr_state.Image.location = 1;
            values = [ Dr_state.Value.Vint 0x7FFF_FFFF_FF ] } ]
      ~heap:[]
  in
  (* hostB is sparc32: the 40-bit integer cannot migrate there *)
  match P.translate_image bus ~src_host:"hostA" ~dst_host:"hostB" image with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected word-size failure"

(* The script-level view of an unfit move: a 2^40 held in main's
   frame cannot live in a sparc32 word, so the move fails loudly, the
   source container is quarantined, and the rollback returns the old
   instance to service with its own state. *)
let ticker_mil =
  {|
module ticker {
  source = "./ticker.exe";
  machine = "hostA";
  define interface out pattern {integer};
  reconfiguration point R state {big, ticks};
}

application ticking {
  instance ticker on "hostA";
}
|}

let ticker_source =
  {|
module ticker;

proc main() {
  var big: int;
  var ticks: int;
  big = 1099511627776;
  ticks = 0;
  mh_init();
  while (true) {
    R: ticks = ticks + 1;
    print(big + ticks);
    sleep(1);
  }
}
|}

let test_unfit_migration_rolls_back () =
  let bus =
    match
      Result.bind
        (Dynrecon.System.load ~mil:ticker_mil
           ~sources:[ ("ticker", ticker_source) ] ())
        (fun system ->
          Dynrecon.System.start system ~app:"ticking"
            ~hosts:Dr_workloads.Monitor.hosts ~default_host:"hostA" ())
    with
    | Ok bus -> bus
    | Error e -> Alcotest.failf "load: %s" e
  in
  Bus.run ~until:3.5 bus;
  let result =
    Script.run_sync bus (fun ~on_done ->
        Script.migrate bus ~instance:"ticker" ~new_instance:"t2"
          ~new_host:"hostB" ~on_done ())
  in
  (match result with
  | Ok _ -> Alcotest.fail "a 2^40 integer moved to a 32-bit host"
  | Error e ->
    Alcotest.(check string) "the codec's message"
      "state translation failed: integer 1099511627776 does not fit a \
       32-bit word"
      e);
  let printed () = List.length (Bus.outputs bus ~instance:"ticker") in
  let before = printed () in
  Bus.run ~until:(Bus.now bus +. 5.0) bus;
  Alcotest.(check bool) "the old instance serves on" true (printed () > before);
  Alcotest.(check bool) "no clone left" false
    (List.mem "t2" (Bus.instances bus));
  Alcotest.(check bool) "journal rolled back" true
    (List.exists
       (fun (_, ev) ->
         match ev with
         | Dr_sim.Trace_event.Rollback_started _ -> true
         | _ -> false)
       (Dr_sim.Trace.events (Bus.trace bus)));
  (* the state it serves with is still its own: freezing it now
     captures the same shape at the same point, so its x86_64 container
     has the size the quarantine recorded *)
  let frozen =
    match Dr_reconfig.Freeze.freeze bus ~instance:"ticker" () with
    | Ok bytes -> Result.get_ok (Dr_state.Codec.decode_abstract bytes)
    | Error e -> Alcotest.failf "freeze: %s" e
  in
  Alcotest.(check bool) "2^40 kept" true
    (List.exists
       (fun (r : Dr_state.Image.record) ->
         List.mem (Dr_state.Value.Vint 1099511627776) r.values)
       frozen.records);
  match Bus.quarantined bus with
  | [ q ] ->
    Alcotest.(check string) "quarantined against the source" "ticker"
      q.Bus.q_instance;
    let native =
      Dr_state.Codec.Native.encode Dr_state.Arch.x86_64 frozen
    in
    Alcotest.(check int) "the source container's size"
      (Bytes.length (Result.get_ok native)) q.Bus.q_byte_size
  | l -> Alcotest.failf "expected one quarantined image, got %d" (List.length l)

let test_migrate_monitor () =
  let bus = monitor () in
  run_until_displays bus 2;
  let before = List.length (displayed bus) in
  let result =
    Script.run_sync bus (fun ~on_done ->
        Script.migrate bus ~instance:"compute" ~new_instance:"compute2"
          ~new_host:"hostB" ~on_done ())
  in
  (match result with
  | Ok "compute2" -> ()
  | Ok other -> Alcotest.failf "unexpected instance %s" other
  | Error e -> Alcotest.failf "migrate: %s" e);
  Alcotest.(check (option string)) "moved" (Some "hostB")
    (Bus.instance_host bus ~instance:"compute2");
  Alcotest.(check bool) "old gone" true
    (not (List.mem "compute" (Bus.instances bus)));
  run_until_displays bus (before + 3);
  let avgs = List.map snd (displayed bus) in
  Alcotest.(check bool) "averages stay correct across the move" true
    (Dr_workloads.Monitor.averages_plausible ~n:4 avgs);
  (* ordering property from Fig. 5: the old module divulges before the
     rebinding commands apply *)
  let trace = Dr_sim.Trace.entries (Bus.trace bus) in
  let time_of pred =
    List.find_map
      (fun (e : Dr_sim.Trace.entry) -> if pred e then Some e.time else None)
      trace
  in
  let divulge_t =
    time_of (fun e -> e.category = "state" && e.detail <> "" && String.length e.detail > 7 && String.sub e.detail 0 7 = "compute")
  in
  let rebind_t = time_of (fun e -> e.category = "bind" && String.length e.detail > 3 && String.sub e.detail 0 3 = "del") in
  match divulge_t, rebind_t with
  | Some d, Some r -> Alcotest.(check bool) "divulge before rebind" true (d <= r)
  | _ -> Alcotest.fail "missing trace entries"

let test_replace_same_host () =
  let bus = monitor () in
  run_until_displays bus 1;
  let result =
    Script.run_sync bus (fun ~on_done ->
        Script.replace bus ~instance:"compute" ~new_instance:"compute_b" ~on_done ())
  in
  (match result with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "replace: %s" e);
  Alcotest.(check (option string)) "same host" (Some "hostA")
    (Bus.instance_host bus ~instance:"compute_b");
  run_until_displays bus 3;
  Alcotest.(check bool) "still correct" true
    (Dr_workloads.Monitor.averages_plausible ~n:4 (List.map snd (displayed bus)))

let test_update_to_v2 () =
  (* software maintenance: swap in compute_v2, which reports served
     requests — the served counter must carry over *)
  let bus = monitor () in
  run_until_displays bus 2;
  let result =
    Script.run_sync bus (fun ~on_done ->
        Script.replace bus ~instance:"compute" ~new_instance:"compute_next"
          ~new_module:"compute_v2" ~on_done ())
  in
  (match result with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "update: %s" e);
  run_until_displays bus 4;
  Alcotest.(check bool) "correct across version change" true
    (Dr_workloads.Monitor.averages_plausible ~n:4 (List.map snd (displayed bus)));
  (* v2 prints the served counter: it must continue from v1's count, so
     the first report is at least 3 (two served before + one after) *)
  let served =
    List.filter_map
      (fun line ->
        try Scanf.sscanf line "served %d request(s)" (fun n -> Some n)
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
      (Bus.outputs bus ~instance:"compute_next")
  in
  match served with
  | first :: _ ->
    Alcotest.(check bool) "counter preserved across update" true (first >= 3)
  | [] -> Alcotest.fail "v2 never reported"

let test_replicate () =
  let bus = monitor () in
  run_until_displays bus 1;
  let result =
    Script.run_sync bus (fun ~on_done ->
        Script.replicate bus ~instance:"sensor_sink_placeholder" ~replica_instance:"r"
          ~on_done ())
  in
  (match result with
  | Error _ -> ()  (* replicating a non-existent instance fails cleanly *)
  | Ok _ -> Alcotest.fail "expected failure");
  let result =
    Script.run_sync bus (fun ~on_done ->
        Script.replicate bus ~instance:"compute" ~replica_instance:"compute_r"
          ~replica_host:"hostC" ~on_done ())
  in
  (match result with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "replicate: %s" e);
  Alcotest.(check bool) "original still present" true
    (List.mem "compute" (Bus.instances bus));
  Alcotest.(check bool) "replica present" true
    (List.mem "compute_r" (Bus.instances bus));
  Alcotest.(check (option string)) "replica host" (Some "hostC")
    (Bus.instance_host bus ~instance:"compute_r");
  (* the sensor stream now fans out to both computes *)
  Alcotest.(check int) "sensor fans out" 2
    (List.length (Bus.routes_from bus ("sensor", "out")))

let test_add_remove_module () =
  let bus = monitor () in
  let spare =
    Support.parse
      "module spare;\nproc main() { var x: int; mh_init(); while (true) { mh_read(\"tap\", x); print(\"tap \", x); } }"
  in
  (match Bus.register_program bus spare with
  | Ok () -> ()
  | Error e -> Alcotest.failf "register: %s" e);
  (match
     Script.add_module bus ~instance:"tap" ~module_name:"spare" ~host:"hostB"
       ~binds:[ (("sensor", "out"), ("tap", "tap")) ]
       ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "add: %s" e);
  Bus.run_while bus ~max_events:200_000 (fun () ->
      Bus.outputs bus ~instance:"tap" = []);
  Alcotest.(check bool) "tap observes sensor traffic" true
    (Bus.outputs bus ~instance:"tap" <> []);
  Script.remove_module bus ~instance:"tap";
  Alcotest.(check bool) "tap gone" true (not (List.mem "tap" (Bus.instances bus)));
  Alcotest.(check bool) "its routes gone" true
    (not
       (List.exists
          (fun ((src : Bus.endpoint), (dst : Bus.endpoint)) ->
            fst src = "tap" || fst dst = "tap")
          (Bus.all_routes bus)))

let test_pending_queue_moves () =
  (* kill the display momentarily so requests pile up at compute, then
     replace compute: queued requests must transfer (the "cq" command) *)
  let bus = monitor () in
  run_until_displays bus 1;
  (* inject extra display requests straight into compute's queue *)
  Bus.inject bus ~dst:("compute", "display") (Dr_state.Value.Vint 4);
  Bus.inject bus ~dst:("compute", "display") (Dr_state.Value.Vint 4);
  let result =
    Script.run_sync bus (fun ~on_done ->
        Script.replace bus ~instance:"compute" ~new_instance:"c2" ~on_done ())
  in
  (match result with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "replace: %s" e);
  (* queued requests either moved to c2's queue or were consumed while
     the script waited for the reconfiguration point *)
  let queue_entries =
    List.filter
      (fun (e : Dr_sim.Trace.entry) -> e.category = "queue")
      (Dr_sim.Trace.entries (Bus.trace bus))
  in
  Alcotest.(check bool) "cq/rmq commands executed" true (queue_entries <> []);
  Bus.run_while bus ~max_events:2_000_000 (fun () ->
      List.length (displayed bus) < 3);
  Alcotest.(check bool) "no request lost: averages keep flowing" true
    (List.length (displayed bus) >= 3)

let test_replace_stateless () =
  (* the sensor has no reconfiguration points; SURGEON-style stateless
     replacement swaps it immediately and the application keeps
     working (the sensor stream restarts at 1) *)
  let bus = monitor () in
  run_until_displays bus 2;
  let before = List.length (displayed bus) in
  (match
     Script.replace_stateless bus ~instance:"sensor" ~new_instance:"sensor2" ()
   with
  | Ok "sensor2" -> ()
  | Ok other -> Alcotest.failf "unexpected %s" other
  | Error e -> Alcotest.failf "stateless replace: %s" e);
  Alcotest.(check bool) "immediate (no waiting for a point)" true
    (List.mem "sensor2" (Bus.instances bus)
    && not (List.mem "sensor" (Bus.instances bus)));
  run_until_displays bus (before + 3);
  Alcotest.(check bool) "application still producing" true
    (List.length (displayed bus) >= before + 3);
  (* but the stream restarted: the post-replacement averages come from a
     fresh 1,2,3,… sequence — visible evidence that state was lost *)
  let after = List.filteri (fun i _ -> i >= before) (displayed bus) in
  match after with
  | (_, first_avg) :: _ ->
    Alcotest.(check bool) "stream restarted low" true (first_avg < 30.0)
  | [] -> Alcotest.fail "no averages after"

let test_freeze_thaw_cold_restart () =
  (* freeze compute to bytes, shut the whole platform down, start a NEW
     bus (a "platform upgrade"), thaw from the bytes, and verify the
     application resumes with its state *)
  let bus = monitor () in
  run_until_displays bus 2;
  let served_before =
    match Bus.machine bus ~instance:"compute" with
    | Some m -> (
      match Machine.read_global m "served" with
      | Some (Dr_state.Value.Vint n) -> n
      | _ -> 0)
    | None -> 0
  in
  Alcotest.(check bool) "some requests served" true (served_before >= 2);
  let frozen =
    match Dr_reconfig.Freeze.freeze bus ~instance:"compute" () with
    | Ok bytes -> bytes
    | Error e -> Alcotest.failf "freeze: %s" e
  in
  Alcotest.(check bool) "instance gone after freeze" true
    (not (List.mem "compute" (Bus.instances bus)));
  (* round-trip through "disk" *)
  let path = Filename.temp_file "dynrecon" ".img" in
  (match Dr_reconfig.Freeze.save ~path frozen with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" e);
  let reloaded =
    match Dr_reconfig.Freeze.load ~path with
    | Ok bytes -> bytes
    | Error e -> Alcotest.failf "load: %s" e
  in
  Sys.remove path;
  (* brand new platform instance *)
  let bus2 = monitor () in
  Bus.kill bus2 ~instance:"compute";
  (match
     Dr_reconfig.Freeze.thaw bus2 ~instance:"compute_thawed"
       ~module_name:"compute" ~host:"hostB" reloaded
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "thaw: %s" e);
  (* re-point the monitor's routes at the thawed instance *)
  List.iter
    (fun ((src : Bus.endpoint), (dst : Bus.endpoint)) ->
      if fst src = "compute" || fst dst = "compute" then
        Bus.del_route bus2 ~src ~dst)
    (Bus.all_routes bus2);
  Bus.add_route bus2 ~src:("display", "temper") ~dst:("compute_thawed", "display");
  Bus.add_route bus2 ~src:("compute_thawed", "display") ~dst:("display", "temper");
  Bus.add_route bus2 ~src:("sensor", "out") ~dst:("compute_thawed", "sensor");
  Bus.run_while bus2 ~max_events:2_000_000 (fun () ->
      List.length (displayed bus2) < 2);
  (* the served counter survived the platform restart *)
  match Bus.machine bus2 ~instance:"compute_thawed" with
  | Some m -> (
    match Machine.read_global m "served" with
    | Some (Dr_state.Value.Vint n) ->
      Alcotest.(check bool) "state survived cold restart" true
        (n >= served_before)
    | _ -> Alcotest.fail "no counter")
  | None -> Alcotest.fail "thawed instance missing"

let test_thaw_rejects_corrupt_bytes () =
  let bus = monitor () in
  match
    Dr_reconfig.Freeze.thaw bus ~instance:"x" ~module_name:"compute"
      ~host:"hostA" (Bytes.of_string "not an image")
  with
  | Error e ->
    Alcotest.(check bool) "mentions corruption" true
      (let contains needle haystack =
         let n = String.length needle and h = String.length haystack in
         let rec go i =
           i + n <= h && (String.sub haystack i n = needle || go (i + 1))
         in
         n = 0 || go 0
       in
       contains "corrupt" e)
  | Ok () -> Alcotest.fail "corrupt bytes accepted"

(* Fail-fast guards: a crashed or halted target can never comply with a
   reconfiguration signal, so [Freeze.freeze] and [Script.run_sync
   ~watch] must report that instead of spinning the event budget on
   bystander processes (the busy module below never stops). *)

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let doomed_bus () =
  let bus = Bus.create ~hosts:Dr_workloads.Monitor.hosts () in
  let register source =
    match Bus.register_program bus (Support.parse source) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "register: %s" e
  in
  register "module crashy;\nproc main() { mh_init(); sleep(2); print(1 / 0); }";
  register "module busy;\nproc main() { mh_init(); while (true) { sleep(1); } }";
  register "module quit;\nproc main() { mh_init(); }";
  let spawn instance =
    match Bus.spawn bus ~instance ~module_name:instance ~host:"hostA" () with
    | Ok () -> ()
    | Error e -> Alcotest.failf "spawn: %s" e
  in
  spawn "crashy";
  spawn "busy";
  spawn "quit";
  bus

let test_freeze_fails_fast_on_crash () =
  let bus = doomed_bus () in
  match Dr_reconfig.Freeze.freeze bus ~instance:"crashy" () with
  | Ok _ -> Alcotest.fail "froze a crashed instance"
  | Error e ->
    Alcotest.(check bool) "reports the crash" true (contains "crashed" e);
    (* fail fast: busy must not get to burn the event budget *)
    Alcotest.(check bool) "stopped promptly" true (Bus.now bus < 1000.0)

let test_freeze_fails_fast_on_halt () =
  let bus = doomed_bus () in
  Bus.run_while bus ~max_events:100_000 (fun () ->
      Bus.process_status bus ~instance:"quit" <> Some Machine.Halted);
  match Dr_reconfig.Freeze.freeze bus ~instance:"quit" () with
  | Ok _ -> Alcotest.fail "froze a halted instance"
  | Error e -> Alcotest.(check bool) "reports the halt" true (contains "halted" e)

let test_run_sync_watch_fails_fast () =
  let bus = doomed_bus () in
  let result =
    Script.run_sync bus ~watch:"crashy" (fun ~on_done ->
        Script.replace bus ~instance:"crashy" ~new_instance:"crashy2" ~on_done ())
  in
  match result with
  | Ok _ -> Alcotest.fail "replacement of a crashing instance succeeded"
  | Error e ->
    Alcotest.(check bool) "reports the crash" true (contains "crashed" e);
    Alcotest.(check bool) "stopped promptly" true (Bus.now bus < 1000.0)

let test_script_trace_order () =
  (* Fig. 5 event order: script starts -> signal -> divulge -> rebind ->
     clone starts -> old removed *)
  let bus = monitor () in
  run_until_displays bus 1;
  let _ =
    Script.run_sync bus (fun ~on_done ->
        Script.migrate bus ~instance:"compute" ~new_instance:"c2" ~new_host:"hostB"
          ~on_done ())
  in
  let entries = Dr_sim.Trace.entries (Bus.trace bus) in
  let index_of pred =
    let rec go i = function
      | [] -> None
      | e :: rest -> if pred e then Some i else go (i + 1) rest
    in
    go 0 entries
  in
  let starts_with prefix (e : Dr_sim.Trace.entry) =
    String.length e.detail >= String.length prefix
    && String.sub e.detail 0 (String.length prefix) = prefix
  in
  let signal_i =
    index_of (fun e -> e.category = "signal" && starts_with "reconfiguration" e)
  in
  let divulge_i = index_of (fun e -> e.category = "state" && starts_with "compute divulged" e) in
  let clone_i = index_of (fun e -> e.category = "lifecycle" && starts_with "c2" e) in
  let removed_i = index_of (fun e -> e.category = "lifecycle" && starts_with "compute removed" e) in
  match signal_i, divulge_i, clone_i, removed_i with
  | Some s, Some d, Some c, Some r ->
    Alcotest.(check bool) "signal < divulge < clone < removed" true
      (s < d && d < c && c < r)
  | _ -> Alcotest.fail "missing script trace entries"

(* Repeated migration must not grow the bus with its history: a removed
   instance keeps its spawn-history record, but its machine holds no copy
   of the image it divulged. *)
let test_migration_retention_flat () =
  let module Metrics = Dr_obs.Metrics in
  let hosts =
    [ { Bus.host_name = "hostA"; arch = Dr_state.Arch.x86_64 };
      { Bus.host_name = "hostB"; arch = Dr_state.Arch.sparc32 } ]
  in
  let bus = Bus.create ~hosts () in
  let registry = Metrics.create () in
  Bus.set_metrics bus registry;
  let storage = Dr_wal.Storage.storage_of_mem (Dr_wal.Storage.memory ()) in
  (match Dr_wal.Wal.create storage with
  | Ok wal -> Bus.set_wal bus wal
  | Error e -> Alcotest.failf "wal: %s" e);
  let prepared =
    match
      Dr_transform.Instrument.prepare
        (Dr_workloads.Synthetic.deeprec_payload ~depth:64 ~payload:8)
        ~points:Dr_workloads.Synthetic.deeprec_points
    with
    | Ok p -> p.Dr_transform.Instrument.prepared_program
    | Error e -> Alcotest.failf "instrument: %s" e
  in
  (match Bus.register_program bus prepared with
  | Ok () -> ()
  | Error e -> Alcotest.failf "register: %s" e);
  (match
     Bus.spawn bus ~instance:"w0" ~module_name:"deeppay" ~host:"hostA" ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "spawn: %s" e);
  Bus.run ~until:5.0 bus;
  let words () = Obj.reachable_words (Obj.repr bus) in
  let after_five = ref 0 in
  for i = 1 to 25 do
    let instance = Printf.sprintf "w%d" (i - 1) in
    let new_instance = Printf.sprintf "w%d" i in
    let new_host = if i mod 2 = 1 then "hostB" else "hostA" in
    match
      Script.run_sync bus ~watch:instance (fun ~on_done ->
          Script.migrate bus ~precopy:true ~instance ~new_instance ~new_host
            ~on_done ())
    with
    | Error e -> Alcotest.failf "migration %d: %s" i e
    | Ok clone -> (
      match Bus.machine bus ~instance:clone with
      | None -> Alcotest.failf "migration %d: clone not live" i
      | Some m ->
        (* each move starts once the previous clone has restored *)
        Bus.run_while bus ~max_events:1_000_000 (fun () ->
            Machine.restore_done_at m = None);
        if i = 5 then after_five := words ())
  done;
  let per_migration = (words () - !after_five) / 20 in
  if per_migration >= 1_500 then
    Alcotest.failf "retained %d words per migration (bound 1500)" per_migration;
  let migrates =
    List.filter
      (fun s -> String.equal (Metrics.span_kind s) "migrate")
      (Metrics.roots registry)
  in
  Alcotest.(check int) "one span per migration" 25 (List.length migrates);
  List.iter
    (fun root ->
      match Metrics.span_duration root with
      | None -> Alcotest.fail "a migrate span never ended"
      | Some total ->
        let phase kind =
          List.fold_left
            (fun acc s ->
              if String.equal (Metrics.span_kind s) kind then
                acc +. Option.value ~default:0.0 (Metrics.span_duration s)
              else acc)
            0.0 (Metrics.span_children root)
        in
        Alcotest.(check (float 1e-9)) "phases tile the window" total
          (phase "signal" +. phase "drain" +. phase "capture"
          +. phase "translate" +. phase "restore"))
    migrates

(* A committed replacement withdraws its deadline: in model-checking
   mode the event would otherwise stay a transition the explorer has to
   schedule (and interleave) although it can no longer do anything. On
   the model-checking workload's bus every other event fires in pool
   order, so the replacement starts once both modules have run their
   first quantum (and installed their signal handlers). *)
let test_commit_withdraws_deadline () =
  let bus = Dr_mc.Workload.boot (Dr_mc.Workload.load ~two_cells:false ~k:1) in
  let engine = Bus.engine bus in
  let result = ref None in
  Dr_sim.Engine.schedule engine ~delay:1.0 (fun () ->
      Script.replace bus ~instance:"c1" ~new_instance:"c1v"
        ~new_module:"cellv2" ~deadline:50.0
        ~on_done:(fun r -> result := Some r)
        ());
  let is_deadline (pe : Dr_sim.Engine.pending_event) =
    String.equal pe.pe_label.lb_info "replace c1: deadline"
  in
  let deadlines () =
    List.length (List.filter is_deadline (Dr_sim.Engine.mc_pending engine))
  in
  let armed = ref false in
  let rec drive () =
    match
      List.find_opt
        (fun pe -> not (is_deadline pe))
        (Dr_sim.Engine.mc_pending engine)
    with
    | Some pe when Option.is_none !result ->
      ignore (Dr_sim.Engine.mc_fire engine ~seq:pe.pe_seq);
      if deadlines () = 1 then armed := true;
      drive ()
    | _ -> ()
  in
  drive ();
  Alcotest.(check bool) "the deadline was armed" true !armed;
  (match !result with
  | Some (Ok "c1v") -> ()
  | Some (Ok other) -> Alcotest.failf "unexpected instance %s" other
  | Some (Error e) -> Alcotest.failf "replace: %s" e
  | None -> Alcotest.fail "the replacement never settled");
  Alcotest.(check int) "no deadline pending after the commit" 0 (deadlines ())

let () =
  Alcotest.run "reconfig"
    [ ( "primitives",
        [ Alcotest.test_case "obj_cap" `Quick test_obj_cap;
          Alcotest.test_case "obj_cap missing" `Quick test_obj_cap_missing;
          Alcotest.test_case "rebind batch" `Quick
            test_rebind_batch_applies_atomically;
          Alcotest.test_case "translate image" `Quick
            test_translate_image_across_hosts;
          Alcotest.test_case "translate overflow" `Quick
            test_translate_overflow_fails;
          Alcotest.test_case "unfit move rolls back" `Quick
            test_unfit_migration_rolls_back ] );
      ( "scripts",
        [ Alcotest.test_case "migrate monitor" `Quick test_migrate_monitor;
          Alcotest.test_case "replace same host" `Quick test_replace_same_host;
          Alcotest.test_case "update to v2" `Quick test_update_to_v2;
          Alcotest.test_case "replicate" `Quick test_replicate;
          Alcotest.test_case "add/remove module" `Quick test_add_remove_module;
          Alcotest.test_case "pending queues move" `Quick test_pending_queue_moves;
          Alcotest.test_case "stateless replacement" `Quick test_replace_stateless;
          Alcotest.test_case "script trace order" `Quick test_script_trace_order;
          Alcotest.test_case "retention per migration flat" `Quick
            test_migration_retention_flat;
          Alcotest.test_case "commit withdraws the deadline" `Quick
            test_commit_withdraws_deadline ] );
      ( "freeze/thaw",
        [ Alcotest.test_case "cold restart" `Quick test_freeze_thaw_cold_restart;
          Alcotest.test_case "corrupt bytes" `Quick test_thaw_rejects_corrupt_bytes ] );
      ( "fail fast",
        [ Alcotest.test_case "freeze on crash" `Quick
            test_freeze_fails_fast_on_crash;
          Alcotest.test_case "freeze on halt" `Quick test_freeze_fails_fast_on_halt;
          Alcotest.test_case "run_sync watch" `Quick
            test_run_sync_watch_fails_fast ] ) ]
