(* WAL suite: durable control log + crash recovery.

   Part 1 (crash sweep) replays the transactional replacement of ring
   member [c] with a durable control log attached and crashes the
   controller at EVERY control-log append index: a dry run counts the
   appends A a scenario performs, then one trial per index 1..A arms
   [ctlcrash@N], lets the controller die, discards its unsynced storage
   tail, reopens the log (torn-tail recovery path) and runs
   [Recovery.replay]. Every trial, the dry run included, then runs 5
   vms and is judged. It is consistent when the fleet ends either fully
   reconfigured or byte-identically rolled back to the pre-script
   snapshot (for the double-replace scenario, any committed prefix of
   the two scripts), and each replaced slot runs on its state: the
   instance serving it is not waiting for an image and has not lost
   passes. The gate is 100% across every scenario x loss cell. Each
   cell also records its dry run's log size (the summed record bodies),
   so a change that grows the journal shows in the artifact.

   Part 2 (append) measures raw append throughput of 128-byte records
   on both storage backends across fsync batching levels (sync_every
   1/8/64), plus one row of 12 KiB records (memory backend, sync_every
   1): the size of a migration's journalled state image, where the cost
   of framing and checksumming the record shows.

   Part 3 (recovery time) measures the wall-clock cost of reopening the
   log and replaying an in-flight script as a function of journal depth
   (2..128 entries), with a budget gate on the deepest point.

   The counts are summarised in BENCH_wal.json (or the path given as the
   second argument); the timings are printed only. The whole suite takes
   about a second and a half. Every count in the artifact (appends, log
   bytes, trials, syncs, records) is deterministic, so `dune runtest`
   regenerates it and diffs it against the committed file.
   Run with: dune exec bench/main.exe -- wal [PATH] *)

module Bus = Dr_bus.Bus
module Faults = Dr_bus.Faults
module Script = Dr_reconfig.Script
module Journal = Dr_reconfig.Journal
module Recovery = Dr_reconfig.Recovery
module Storage = Dr_wal.Storage
module Wal = Dr_wal.Wal
module Ring = Dr_workloads.Ring
module Machine = Dr_interp.Machine

let ok_exn = function Ok v -> v | Error e -> failwith e

(* ------------------------------------------------------------ tmpdirs *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_tmpdir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "drwal-bench-%d-%06x" (Unix.getpid ())
         (Random.int 0xFFFFFF))
  in
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* -------------------------------------------------------- crash sweep *)

type scenario = {
  sc_name : string;
  sc_dup : float;
  sc_jitter : float;
  sc_double : bool;  (* replace c -> c2, then b -> b2 *)
  sc_deadline : float;
}

let scenarios =
  [ { sc_name = "replace"; sc_dup = 0.0; sc_jitter = 0.0; sc_double = false;
      sc_deadline = 25.0 };
    { sc_name = "replace + dup/jitter"; sc_dup = 0.10; sc_jitter = 0.5;
      sc_double = false; sc_deadline = 25.0 };
    { sc_name = "double replace"; sc_dup = 0.0; sc_jitter = 0.0;
      sc_double = true; sc_deadline = 25.0 };
    (* deadline expires before the target divulges, so the script always
       rolls back live — crash indices then land on the Abort and
       Undo_done appends and recovery must RESUME a half-done rollback *)
    { sc_name = "rollback (deadline)"; sc_dup = 0.0; sc_jitter = 0.0;
      sc_double = false; sc_deadline = 0.001 } ]

let snapshot bus =
  let routes =
    List.sort compare
      (List.map
         (fun ((src, dst) : Bus.endpoint * Bus.endpoint) ->
           (fst src, snd src, fst dst, snd dst))
         (Bus.all_routes bus))
  in
  let roster = List.sort String.compare (Bus.instances bus) in
  (routes, roster)

let fully_routed bus =
  let live = Bus.instances bus in
  List.for_all
    (fun ((src, dst) : Bus.endpoint * Bus.endpoint) ->
      List.mem (fst src) live && List.mem (fst dst) live)
    (Bus.all_routes bus)

let replaced bus ~old_i ~new_i =
  let live = Bus.instances bus in
  List.mem new_i live && not (List.mem old_i live)

(* Whichever of [old_i]/[new_i] serves the slot runs on [old_i]'s
   state: restored (not blocked waiting for an image) with no fewer
   than the [passes] [old_i] had made before its script. *)
let state_kept bus ~old_i ~new_i ~passes =
  match List.filter (fun i -> List.mem i (Bus.instances bus)) [ old_i; new_i ] with
  | [ i ] ->
    Bus.process_status bus ~instance:i <> Some Machine.Blocked_decode
    && Ring.passes bus ~instance:i >= passes
  | _ -> false

let retry = { Script.attempts = 2; backoff = 5.0; alt_hosts = [ "hostA" ] }

let replace_sync bus ~deadline ~instance ~new_instance =
  Script.run_sync bus (fun ~on_done ->
      Script.replace bus ~instance ~new_instance ~deadline ~retry ~on_done ())

(* One trial. [ctl_crash = None] is the dry run: it returns the total
   control-log append count so the sweep can aim a crash at every
   index, and the log's size. *)
let run_trial scenario ~loss ~seed ~ctl_crash =
  let system = Ring.load () in
  let bus = Ring.start system in
  let mem = Storage.memory () in
  let wal = ok_exn (Wal.create (Storage.storage_of_mem mem)) in
  Bus.set_wal bus wal;
  let rules = [ Faults.rule ~loss ~dup:scenario.sc_dup () ] in
  Faults.install bus ~seed
    (Faults.plan ~rules ~jitter:scenario.sc_jitter ?ctl_crash ());
  Bus.run ~until:8.0 bus;
  let before = snapshot bus in
  let deadline = scenario.sc_deadline in
  let c_passes = Ring.passes bus ~instance:"c" in
  let first = replace_sync bus ~deadline ~instance:"c" ~new_instance:"c2" in
  let b_passes = Ring.passes bus ~instance:"b" in
  if scenario.sc_double && Result.is_ok first && not (Bus.controller_down bus)
  then ignore (replace_sync bus ~deadline ~instance:"b" ~new_instance:"b2");
  let crashed = Bus.controller_down bus in
  let recovery =
    if crashed then begin
      (* the controller's memory is gone: unsynced storage tail too *)
      Storage.crash mem;
      let wal = ok_exn (Wal.create (Storage.storage_of_mem mem)) in
      Bus.set_wal bus wal;
      Some (Recovery.replay bus)
    end
    else None
  in
  (* long enough for a restored clone to take its image and pass on *)
  Bus.run ~until:(Bus.now bus +. 5.0) bus;
  let consistent =
    match recovery with
    | Some (Error _) -> false
    | _ ->
      (* legal end states: untouched, first replacement committed (and
         for the double scenario optionally the second too) — anything
         else means a script half-applied *)
      let back_to_start = snapshot bus = before in
      let first_done =
        replaced bus ~old_i:"c" ~new_i:"c2" && fully_routed bus
      in
      let second_done =
        replaced bus ~old_i:"b" ~new_i:"b2" && fully_routed bus
      in
      let second_untouched = not (replaced bus ~old_i:"b" ~new_i:"b2") in
      (back_to_start
      || (first_done && (second_untouched || second_done)))
      && state_kept bus ~old_i:"c" ~new_i:"c2" ~passes:c_passes
      && state_kept bus ~old_i:"b" ~new_i:"b2" ~passes:b_passes
  in
  let log_bytes =
    match Bus.wal bus with
    | Some wal ->
      List.fold_left
        (fun acc (_, _, body) -> acc + Bytes.length body)
        0 (Wal.records wal)
    | None -> 0
  in
  (consistent, crashed, Bus.ctl_appends bus, log_bytes, recovery)

type sweep_row = {
  row_scenario : string;
  row_loss : float;
  row_appends : int;  (* control-log appends in the dry run *)
  row_log_bytes : int;  (* summed record bodies of the dry run's log *)
  row_trials : int;  (* crash-at-index trials (= appends) *)
  row_consistent : int;
  row_resumed : int;  (* recoveries that resumed a mid-flight rollback *)
}

let run_sweep_cell scenario ~loss ~seed =
  let dry_ok, dry_crashed, appends, log_bytes, _ =
    run_trial scenario ~loss ~seed ~ctl_crash:None
  in
  assert (not dry_crashed);
  if not dry_ok then
    Printf.printf "  !! dry run inconsistent (%s, loss %.0f%%, seed %d)\n"
      scenario.sc_name (100.0 *. loss) seed;
  let consistent = ref (if dry_ok then 0 else -1) in
  let resumed = ref 0 in
  for n = 1 to appends do
    let ok, crashed, _, _, recovery =
      run_trial scenario ~loss ~seed ~ctl_crash:(Some n)
    in
    assert crashed;
    if ok then incr consistent
    else
      Printf.printf "  !! inconsistent: %s, loss %.0f%%, seed %d, crash@%d%s\n"
        scenario.sc_name (100.0 *. loss) seed n
        (match recovery with
        | Some (Error e) -> " (recovery failed: " ^ e ^ ")"
        | _ -> "");
    match recovery with
    | Some (Ok r) when r.Recovery.rp_resumed > 0 -> incr resumed
    | _ -> ()
  done;
  { row_scenario = scenario.sc_name;
    row_loss = loss;
    row_appends = appends;
    row_log_bytes = log_bytes;
    row_trials = appends;
    row_consistent = max 0 !consistent;
    row_resumed = !resumed }

(* --------------------------------------------------- append throughput *)

type append_row = {
  ap_backend : string;
  ap_sync_every : int;
  ap_payload : int;  (* bytes per record body *)
  ap_records : int;
  ap_seconds : float;
  ap_syncs : int;
}

let append_run storage ~sync_every ~payload ~records =
  let config = { Wal.default_config with sync_every } in
  let wal = ok_exn (Wal.create ~config storage) in
  let payload = Bytes.make payload 'x' in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to records do
    ignore (Wal.append wal ~kind:2 payload : int)
  done;
  Wal.sync wal;
  let dt = Unix.gettimeofday () -. t0 in
  (dt, Wal.syncs wal)

let memory_append ~sync_every ~payload ~records =
  let storage = Storage.storage_of_mem (Storage.memory ()) in
  let dt, syncs = append_run storage ~sync_every ~payload ~records in
  { ap_backend = "memory"; ap_sync_every = sync_every; ap_payload = payload;
    ap_records = records; ap_seconds = dt; ap_syncs = syncs }

let run_append () =
  let records = 20_000 and payload = 128 in
  let levels = [ 1; 8; 64 ] in
  let mem_rows =
    List.map
      (fun sync_every -> memory_append ~sync_every ~payload ~records)
      levels
  in
  let file_rows =
    List.map
      (fun sync_every ->
        with_tmpdir (fun dir ->
            let dt, syncs =
              append_run (Storage.file ~dir) ~sync_every ~payload ~records
            in
            { ap_backend = "file"; ap_sync_every = sync_every;
              ap_payload = payload; ap_records = records; ap_seconds = dt;
              ap_syncs = syncs }))
      levels
  in
  (* 12 KiB records, the size of a depth-64 state image in a journal
     entry; 2 000 of them keep the in-memory log at about 25 MB *)
  let image_row =
    memory_append ~sync_every:1 ~payload:(12 * 1024) ~records:2_000
  in
  mem_rows @ file_rows @ [ image_row ]

(* ------------------------------------------------ recovery vs depth *)

type recovery_row = {
  rc_depth : int;
  rc_records : int;  (* live records replayed *)
  rc_seconds : float;  (* mean reopen + replay time *)
}

(* Leave a [depth]-entry script in flight on a fresh log, then measure
   reopening the log and replaying (which rolls the script back). *)
let recovery_run ~depth ~trials =
  let total = ref 0.0 in
  let records = ref 0 in
  for _ = 1 to trials do
    let bus = Ring.start (Ring.load ()) in
    Bus.run ~until:2.0 bus;
    let mem = Storage.memory () in
    let wal = ok_exn (Wal.create (Storage.storage_of_mem mem)) in
    Bus.set_wal bus wal;
    let j = Journal.create bus ~label:(Printf.sprintf "depth-%d" depth) in
    for i = 1 to depth do
      let iface = Printf.sprintf "wal%d" i in
      Journal.add_route j ~src:("a", iface) ~dst:("b", iface)
    done;
    (* the controller dies here: no commit, no abort *)
    Storage.crash mem;
    let t0 = Unix.gettimeofday () in
    let wal = ok_exn (Wal.create (Storage.storage_of_mem mem)) in
    Bus.set_wal bus wal;
    records := List.length (Wal.records wal);
    (match Recovery.replay bus with
    | Ok r -> assert (r.Recovery.rp_rolled_back = 1)
    | Error e -> failwith e);
    total := !total +. (Unix.gettimeofday () -. t0)
  done;
  { rc_depth = depth;
    rc_records = !records;
    rc_seconds = !total /. float_of_int trials }

(* ----------------------------------------------------------------- main *)

let json_of_sweep row =
  Json_out.(
    obj
      [ ("scenario", str row.row_scenario);
        ("loss", float row.row_loss);
        ("appends", int row.row_appends);
        ("log_bytes", int row.row_log_bytes);
        ("crash_trials", int row.row_trials);
        ("consistent", int row.row_consistent);
        ("resumed_rollbacks", int row.row_resumed) ])

(* The artifact holds counts only; the timings go to the printed
   tables. *)
let json_of_append row =
  Json_out.(
    obj
      [ ("backend", str row.ap_backend);
        ("sync_every", int row.ap_sync_every);
        ("payload_bytes", int row.ap_payload);
        ("records", int row.ap_records);
        ("syncs", int row.ap_syncs) ])

let json_of_recovery row =
  Json_out.(obj [ ("depth", int row.rc_depth); ("records", int row.rc_records) ])

(* wall-clock budget for reopening + replaying the deepest journal *)
let recovery_budget_s = 0.25

let all ?(path = "BENCH_wal.json") () =
  Random.self_init ();
  let losses = [ 0.0; 0.10; 0.20 ] in
  print_newline ();
  print_endline "==============================================================";
  print_endline "WAL: controller crash at every control-log append index";
  print_endline
    "dry run counts appends A; one recovery trial per index 1..A per cell";
  print_endline "==============================================================";
  Printf.printf "%-22s %6s %9s %10s %12s %9s\n" "scenario" "loss" "appends"
    "log bytes" "consistent" "resumed";
  Printf.printf "%s\n" (String.make 75 '-');
  let sweep_rows = ref [] in
  let sweep_failures = ref 0 in
  List.iter
    (fun scenario ->
      List.iter
        (fun loss ->
          let row = run_sweep_cell scenario ~loss ~seed:1 in
          sweep_rows := row :: !sweep_rows;
          if row.row_consistent < row.row_trials then incr sweep_failures;
          Printf.printf "%-22s %5.0f%% %9d %10d %6d/%-5d %9d\n"
            row.row_scenario (100.0 *. loss) row.row_appends row.row_log_bytes
            row.row_consistent row.row_trials row.row_resumed)
        losses)
    scenarios;
  Printf.printf "%s\n" (String.make 75 '-');
  Printf.printf "cells with any inconsistent trial: %d (threshold 0)\n"
    !sweep_failures;
  print_newline ();
  print_endline "==============================================================";
  print_endline "WAL: append throughput (group commit)";
  print_endline "==============================================================";
  Printf.printf "%-8s %12s %9s %9s %9s %14s\n" "backend" "sync_every"
    "payload" "records" "syncs" "records/sec";
  Printf.printf "%s\n" (String.make 68 '-');
  let append_rows = run_append () in
  List.iter
    (fun r ->
      Printf.printf "%-8s %12d %9d %9d %9d %14.0f\n" r.ap_backend
        r.ap_sync_every r.ap_payload r.ap_records r.ap_syncs
        (float_of_int r.ap_records /. r.ap_seconds))
    append_rows;
  print_newline ();
  print_endline "==============================================================";
  print_endline "WAL: recovery time vs journal depth";
  print_endline "==============================================================";
  Printf.printf "%-8s %9s %16s\n" "depth" "records" "reopen+replay";
  Printf.printf "%s\n" (String.make 36 '-');
  let depths = [ 2; 8; 32; 128 ] in
  let trials = 10 in
  let recovery_rows = List.map (fun depth -> recovery_run ~depth ~trials) depths in
  List.iter
    (fun r ->
      Printf.printf "%-8d %9d %13.2f ms\n" r.rc_depth r.rc_records
        (1000.0 *. r.rc_seconds))
    recovery_rows;
  let deepest = List.nth recovery_rows (List.length recovery_rows - 1) in
  Printf.printf "%s\n" (String.make 36 '-');
  Printf.printf "depth-%d recovery: %.2f ms (budget %.0f ms)\n"
    deepest.rc_depth
    (1000.0 *. deepest.rc_seconds)
    (1000.0 *. recovery_budget_s);
  let budget_ok = deepest.rc_seconds <= recovery_budget_s in
  let json =
    Json_out.(
      obj
        [ ("suite", str "wal");
          ("crash_sweep", arr (List.rev_map json_of_sweep !sweep_rows));
          ("sweep_cells_failed", int !sweep_failures);
          ("append", arr (List.map json_of_append append_rows));
          ("recovery", arr (List.map json_of_recovery recovery_rows));
          ("recovery_budget_seconds", float recovery_budget_s);
          ("recovery_budget_ok", bool budget_ok) ])
  in
  Json_out.write path json;
  if !sweep_failures > 0 || not budget_ok then exit 1
