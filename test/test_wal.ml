(* The durable control plane: WAL storage, log recovery, and
   crash-recovery of reconfiguration scripts.

   Three layers under test. The log itself (Dr_wal.Wal) must recover a
   clean prefix or fail loudly — never mis-parse — whatever a crash or
   a corruptor does to its blobs (fuzzed: torn tails, flipped bits,
   duplicated segments, empty files). Its safety invariants (LSNs
   strictly increasing and contiguous across segments, checkpoint
   monotonic) are checked as monitors over randomised op sequences.
   And the journal's write-ahead discipline must make controller
   crashes invisible: replaying the log after a crash at any append
   index rolls an in-flight script back with a trace byte-identical
   (per rollback line) to the rollback a live controller would have
   performed on the same prefix. *)

module Bus = Dr_bus.Bus
module Faults = Dr_bus.Faults
module Script = Dr_reconfig.Script
module Journal = Dr_reconfig.Journal
module Persist = Dr_reconfig.Persist
module Recovery = Dr_reconfig.Recovery
module Storage = Dr_wal.Storage
module Wal = Dr_wal.Wal
module Ring = Dr_workloads.Ring

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* fresh memory-backed log *)
let mem_wal ?config () =
  let mem = Storage.memory () in
  (mem, ok (Wal.create ?config (Storage.storage_of_mem mem)))

let reopen ?config mem = Wal.create ?config (Storage.storage_of_mem mem)

let payload i = Bytes.of_string (Printf.sprintf "record-%04d" i)

let append_n wal ~n =
  for i = 1 to n do
    ignore (Wal.append wal ~kind:2 (payload i) : int)
  done

let lsns records = List.map (fun (lsn, _, _) -> lsn) records

let rec is_prefix shorter longer =
  match (shorter, longer) with
  | [], _ -> true
  | _, [] -> false
  | a :: s, b :: l -> a = b && is_prefix s l

(* --------------------------------------------------------- log basics *)

let test_roundtrip () =
  let mem, wal = mem_wal () in
  append_n wal ~n:10;
  Alcotest.(check (list int)) "contiguous LSNs from 1"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (lsns (Wal.records wal));
  let wal2 = ok (reopen mem) in
  Alcotest.(check bool) "reopen preserves records" true
    (Wal.records wal = Wal.records wal2);
  Alcotest.(check int) "next lsn resumes" 11 (Wal.next_lsn wal2);
  ok (Wal.check_invariants wal2)

let test_crash_loses_unsynced_tail () =
  let mem, wal = mem_wal ~config:{ Wal.segment_bytes = 1 lsl 16; sync_every = 100 } () in
  append_n wal ~n:8;
  Wal.sync wal;
  append_n wal ~n:3;
  (* 3 appends buffered, never synced *)
  Storage.crash mem;
  let wal2 = ok (reopen mem) in
  Alcotest.(check (list int)) "synced prefix survives"
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    (lsns (Wal.records wal2));
  ok (Wal.check_invariants wal2)

let test_torn_tail_truncated () =
  let mem, wal = mem_wal () in
  append_n wal ~n:6;
  let seg = List.hd (Wal.segment_names wal) in
  let storage = Storage.storage_of_mem mem in
  let size = Bytes.length (ok (storage.Storage.st_read seg)) in
  Storage.truncate_blob mem ~blob:seg ~len:(size - 5);
  let wal2 = ok (reopen mem) in
  let r = Wal.open_report wal2 in
  Alcotest.(check int) "one record lost" 5 r.or_records;
  Alcotest.(check bool) "truncation reported" true (r.or_truncated_bytes > 0);
  (* the heal is durable: a second reopen sees a clean log *)
  let wal3 = ok (reopen mem) in
  Alcotest.(check int) "no further truncation" 0
    (Wal.open_report wal3).or_truncated_bytes;
  ok (Wal.check_invariants wal3)

let test_early_segment_damage_fails_loudly () =
  let config = { Wal.segment_bytes = 64; sync_every = 1 } in
  let mem, wal = mem_wal ~config () in
  append_n wal ~n:20;
  Alcotest.(check bool) "multiple segments" true
    (List.length (Wal.segment_names wal) > 2);
  (* damage the FIRST segment: that is corruption, not a crash *)
  Storage.corrupt_byte mem ~blob:(List.hd (Wal.segment_names wal)) ~at:10;
  (match reopen mem with
  | Error e ->
    Alcotest.(check bool) "error names the segment" true (contains "seg-" e)
  | Ok _ -> Alcotest.fail "damaged early segment recovered silently")

let test_checkpoint_gc_and_state () =
  let config = { Wal.segment_bytes = 128; sync_every = 1 } in
  let mem, wal = mem_wal ~config () in
  append_n wal ~n:30;
  Wal.checkpoint ~state:(Bytes.of_string "cp-state") wal;
  append_n wal ~n:5;
  Alcotest.(check int) "only post-checkpoint records live" 5
    (List.length (Wal.records wal));
  let wal2 = ok (reopen ~config mem) in
  Alcotest.(check int) "checkpoint survives reopen" (Wal.checkpoint_lsn wal)
    (Wal.checkpoint_lsn wal2);
  Alcotest.(check (option string)) "checkpoint state survives reopen"
    (Some "cp-state")
    (Option.map Bytes.to_string (Wal.checkpoint_state wal2));
  Alcotest.(check int) "records after reopen" 5
    (List.length (Wal.records wal2));
  ok (Wal.check_invariants wal2)

let test_empty_log () =
  let mem, wal = mem_wal () in
  Alcotest.(check int) "no records" 0 (List.length (Wal.records wal));
  let wal2 = ok (reopen mem) in
  Alcotest.(check int) "reopen of fresh log" 0
    (Wal.open_report wal2).or_records;
  ok (Wal.check_invariants wal2)

(* ------------------------------------------------------- file backend *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let tmp_counter = ref 0

let with_tmpdir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "drwal-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_file_backend_roundtrip () =
  with_tmpdir @@ fun dir ->
  let config = { Wal.segment_bytes = 256; sync_every = 1 } in
  let wal = ok (Wal.create ~config (Storage.file ~dir)) in
  append_n wal ~n:25;
  Wal.sync wal;
  let first = Wal.records wal in
  (* a second process opens the same directory *)
  let wal2 = ok (Wal.create ~config (Storage.file ~dir)) in
  Alcotest.(check bool) "records survive on disk" true
    (first = Wal.records wal2);
  Alcotest.(check int) "25 records" 25 (List.length first);
  ok (Wal.check_invariants wal2)

let test_file_backend_torn_tail () =
  with_tmpdir @@ fun dir ->
  let wal = ok (Wal.create (Storage.file ~dir)) in
  append_n wal ~n:4;
  Wal.sync wal;
  let seg = List.hd (Wal.segment_names wal) in
  let path = Filename.concat dir seg in
  let size = (Unix.stat path).Unix.st_size in
  Unix.truncate path (size - 3);
  let wal2 = ok (Wal.create (Storage.file ~dir)) in
  Alcotest.(check int) "clean prefix recovered" 3
    (Wal.open_report wal2).or_records;
  ok (Wal.check_invariants wal2)

(* -------------------------------------------------------- decoder fuzz *)

(* reference: records of a freshly written log *)
let build_log ~seg_bytes ~n =
  let config = { Wal.segment_bytes = seg_bytes; sync_every = 1 } in
  let mem, wal = mem_wal ~config () in
  append_n wal ~n;
  (mem, Wal.records wal)

let fuzz_truncated_tail =
  Support.qcheck ~count:100 "fuzz: truncated tail recovers a clean prefix"
    QCheck2.Gen.(pair (int_range 1 40) (int_range 0 200))
    (fun (n, cut) ->
      let mem, original = build_log ~seg_bytes:256 ~n in
      let storage = Storage.storage_of_mem mem in
      let segs =
        List.filter (fun b -> contains "seg-" b) (storage.Storage.st_list ())
      in
      let last = List.nth segs (List.length segs - 1) in
      let size = Bytes.length (ok (storage.Storage.st_read last)) in
      Storage.truncate_blob mem ~blob:last ~len:(max 0 (size - cut));
      match reopen mem with
      | Error _ -> true (* loud failure is acceptable, silence is not *)
      | Ok wal ->
        let recovered = Wal.records wal in
        is_prefix recovered original
        && Result.is_ok (Wal.check_invariants wal))

let fuzz_bit_flip =
  Support.qcheck ~count:200 "fuzz: flipped bit never mis-parses"
    QCheck2.Gen.(triple (int_range 1 40) (int_range 0 10_000) (int_range 0 10_000))
    (fun (n, blob_pick, at_pick) ->
      let mem, original = build_log ~seg_bytes:256 ~n in
      let storage = Storage.storage_of_mem mem in
      let blobs = storage.Storage.st_list () in
      let blob = List.nth blobs (blob_pick mod List.length blobs) in
      let size = Bytes.length (ok (storage.Storage.st_read blob)) in
      if size = 0 then true
      else begin
        Storage.corrupt_byte mem ~blob ~at:(at_pick mod size);
        match reopen mem with
        | Error _ -> true
        | Ok wal -> (
          match Wal.records wal with
          | recovered -> is_prefix recovered original
          | exception Invalid_argument _ -> true)
      end)

let fuzz_duplicated_segment =
  Support.qcheck ~count:100 "fuzz: duplicated segment rejected or truncated"
    QCheck2.Gen.(pair (int_range 4 40) (int_range 0 100))
    (fun (n, gap) ->
      let mem, original = build_log ~seg_bytes:128 ~n in
      let storage = Storage.storage_of_mem mem in
      let segs =
        List.filter (fun b -> contains "seg-" b) (storage.Storage.st_list ())
      in
      let data = ok (storage.Storage.st_read (List.hd segs)) in
      (* replay the first segment's bytes under a name past the head *)
      let clone = Printf.sprintf "seg-%012d.wal" (n + 1 + gap) in
      storage.Storage.st_write clone data;
      match reopen mem with
      | Error _ -> true
      | Ok wal ->
        let recovered = Wal.records wal in
        is_prefix recovered original
        && Result.is_ok (Wal.check_invariants wal))

let fuzz_empty_segment =
  Support.qcheck ~count:50 "fuzz: empty segment file never mis-parses"
    QCheck2.Gen.(pair (int_range 1 30) (int_range 0 50))
    (fun (n, gap) ->
      let mem, original = build_log ~seg_bytes:256 ~n in
      let storage = Storage.storage_of_mem mem in
      let name = Printf.sprintf "seg-%012d.wal" (n + 1 + gap) in
      storage.Storage.st_write name (Bytes.create 0);
      match reopen mem with
      | Error _ -> true
      | Ok wal -> is_prefix (Wal.records wal) original)

let fuzz_persist_decode_total =
  Support.qcheck ~count:300 "fuzz: Persist.decode never raises"
    QCheck2.Gen.(pair (int_range 0 8) (string_size (int_range 0 64)))
    (fun (kind, junk) ->
      match Persist.decode ~kind (Bytes.of_string junk) with
      | Ok _ | Error _ -> true)

(* ------------------------------------------- invariant monitors (fuzz) *)

(* Random op sequences against a model of durable content. After every
   crash+reopen: records must equal the model's durable prefix (at or
   above the checkpoint), invariants must hold, and the checkpoint LSN
   must never move backwards. *)
let fuzz_invariant_monitor =
  Support.qcheck ~count:100 "monitor: LSN/checkpoint invariants under random ops"
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 0 99))
    (fun ops ->
      let config = { Wal.segment_bytes = 200; sync_every = 1000 } in
      let mem = Storage.memory () in
      let wal = ref (ok (Wal.create ~config (Storage.storage_of_mem mem))) in
      let appended = ref [] in (* (lsn, body) newest first *)
      let durable = ref 0 in
      let last_cp = ref (Wal.checkpoint_lsn !wal) in
      let next_body = ref 0 in
      let check_cp () =
        let cp = Wal.checkpoint_lsn !wal in
        let okcp = cp >= !last_cp in
        last_cp := cp;
        okcp
      in
      List.for_all
        (fun op ->
          match op mod 10 with
          | 0 | 1 | 2 | 3 | 4 | 5 ->
            incr next_body;
            let body = payload !next_body in
            let lsn = Wal.append !wal ~kind:2 body in
            appended := (lsn, body) :: !appended;
            (* rolling to a fresh segment syncs implicitly *)
            durable := max !durable (Wal.durable_lsn !wal);
            check_cp ()
          | 6 ->
            Wal.sync !wal;
            durable := Wal.durable_lsn !wal;
            check_cp ()
          | 7 ->
            Wal.checkpoint !wal;
            durable := Wal.durable_lsn !wal;
            check_cp ()
          | _ -> (
            Storage.crash mem;
            match Wal.create ~config (Storage.storage_of_mem mem) with
            | Error _ -> false (* an un-corrupted log must always reopen *)
            | Ok w ->
              wal := w;
              appended :=
                List.filter (fun (lsn, _) -> lsn <= !durable) !appended;
              let cp = Wal.checkpoint_lsn w in
              let expect =
                List.rev
                  (List.filter_map
                     (fun (lsn, body) ->
                       if lsn >= cp then Some (lsn, 2, body) else None)
                     !appended)
              in
              let got = Wal.records w in
              let sorted =
                let rec strict = function
                  | a :: (b :: _ as r) -> a + 1 = b && strict r
                  | _ -> true
                in
                strict (lsns got)
              in
              got = expect && sorted
              && Result.is_ok (Wal.check_invariants w)
              && check_cp ()))
        ops)

(* ----------------------------------------- journal recovery end to end *)

let snapshot bus =
  let routes =
    List.sort compare
      (List.map
         (fun ((src, dst) : Bus.endpoint * Bus.endpoint) ->
           (fst src, snd src, fst dst, snd dst))
         (Bus.all_routes bus))
  in
  (routes, List.sort String.compare (Bus.instances bus))

let rollback_lines bus =
  List.filter_map
    (fun (e : Dr_sim.Trace.entry) ->
      if String.equal e.category "rollback" then Some e.detail else None)
    (Dr_sim.Trace.entries (Bus.trace bus))

(* Run the ring with a logged controller and a replacement that always
   rolls back (deadline shorter than any divulge). [ctl_crash] arms the
   controller crash; on crash the controller's memory and unsynced
   storage tail are discarded and the log is reopened and replayed. *)
let deadline_trial ?ctl_crash () =
  let bus = Ring.start (Ring.load ()) in
  let mem = Storage.memory () in
  let wal = ok (Wal.create (Storage.storage_of_mem mem)) in
  Bus.set_wal bus wal;
  (match ctl_crash with
  | Some n -> Faults.install bus ~seed:1 (Faults.plan ~ctl_crash:n ())
  | None -> ());
  Bus.run ~until:8.0 bus;
  let before = snapshot bus in
  let outcome =
    Script.run_sync bus (fun ~on_done ->
        Script.replace bus ~instance:"c" ~new_instance:"c2" ~deadline:0.001
          ~retry:Script.no_retry ~on_done ())
  in
  let crashed = Bus.controller_down bus in
  if crashed then begin
    Storage.crash mem;
    Bus.set_wal bus (ok (reopen mem));
    match Recovery.replay bus with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "recovery failed: %s" e
  end;
  (bus, mem, before, outcome, crashed)

(* locate the LSN of the Abort record in a dry run's log *)
let abort_lsn mem =
  let wal = ok (reopen mem) in
  let hit =
    List.find_map
      (fun (lsn, kind, body) ->
        match Persist.decode ~kind body with
        | Ok (Persist.Abort _) -> Some lsn
        | _ -> None)
      (Wal.records wal)
  in
  match hit with
  | Some lsn -> lsn
  | None -> Alcotest.fail "dry run logged no Abort record"

let test_trace_parity () =
  let bus_live, mem_live, before_live, _, crashed = deadline_trial () in
  Alcotest.(check bool) "dry run keeps its controller" false crashed;
  let live = rollback_lines bus_live in
  Alcotest.(check bool) "live rollback restored the snapshot" true
    (snapshot bus_live = before_live);
  let abort = abort_lsn mem_live in
  (* crash exactly on the Abort append: the whole rollback replays *)
  let bus_a, _, before_a, _, crashed_a = deadline_trial ~ctl_crash:abort () in
  Alcotest.(check bool) "crashed at abort" true crashed_a;
  Alcotest.(check bool) "replayed rollback restored the snapshot" true
    (snapshot bus_a = before_a);
  (* pre-crash the live controller traced the header; recovery then
     re-traces the full rollback — header and steps byte-identical *)
  Alcotest.(check (list string)) "full replayed rollback is byte-identical"
    (List.hd live :: live) (rollback_lines bus_a);
  (* crash after the first Undo_done: recovery RESUMES, skipping the
     already-undone step and keeping the original numbering *)
  let bus_r, _, before_r, _, crashed_r =
    deadline_trial ~ctl_crash:(abort + 1) ()
  in
  Alcotest.(check bool) "crashed mid-rollback" true crashed_r;
  Alcotest.(check bool) "resumed rollback restored the snapshot" true
    (snapshot bus_r = before_r);
  let resumed_lines =
    List.filter
      (fun l -> not (contains "resuming rollback" l))
      (rollback_lines bus_r)
  in
  Alcotest.(check (list string))
    "undo lines minus the resume header are byte-identical" live resumed_lines;
  Alcotest.(check bool) "a resume header was traced" true
    (List.exists
       (fun l -> contains "resuming rollback" l)
       (rollback_lines bus_r))

let test_rollback_lines_carry_label_and_index () =
  let bus, _, _, _, _ = deadline_trial () in
  let steps =
    List.filter (fun l -> contains "[1/" l) (rollback_lines bus)
  in
  Alcotest.(check bool) "indexed undo lines present" true (steps <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line carries the script label" true
        (contains "replace c -> c2 [1/" l))
    steps

(* A logged ring at 8 vms, then replace c -> c2 with a generous
   deadline: without [ctl_crash] the script COMMITS. Also returns c's
   pass counter read just before the script. *)
let commit_trial ?ctl_crash ?(corrupt = false) () =
  let bus = Ring.start (Ring.load ()) in
  let mem = Storage.memory () in
  Bus.set_wal bus (ok (Wal.create (Storage.storage_of_mem mem)));
  (match ctl_crash with
  | Some n -> Faults.install bus ~seed:1 (Faults.plan ~ctl_crash:n ())
  | None -> ());
  Bus.run ~until:8.0 bus;
  if corrupt then Bus.arm_image_corruption bus ~instance:"c";
  let before = snapshot bus in
  let passes = Ring.passes bus ~instance:"c" in
  let outcome =
    Script.run_sync bus (fun ~on_done ->
        Script.replace bus ~instance:"c" ~new_instance:"c2" ~deadline:25.0
          ~retry:Script.no_retry ~on_done ())
  in
  (bus, mem, before, passes, outcome)

(* a crashed controller loses its memory and its unsynced storage tail;
   reopen the log and replay it *)
let recover bus mem =
  Storage.crash mem;
  Bus.set_wal bus (ok (reopen mem));
  match Recovery.replay bus with
  | Ok r -> r
  | Error e -> Alcotest.failf "recovery: %s" e

let test_crash_mid_script_rolls_back () =
  (* crash at entry appends before the commit and check recovery
     restores the pre-script world *)
  let _, mem, _, _, outcome = commit_trial () in
  Alcotest.(check bool) "dry run commits" true (Result.is_ok outcome);
  let total = List.length (Wal.records (ok (reopen mem))) in
  Alcotest.(check bool) "a real script logged records" true (total > 4);
  List.iter
    (fun n ->
      let bus, mem, before, _, _ = commit_trial ~ctl_crash:n () in
      Alcotest.(check bool) "controller died" true (Bus.controller_down bus);
      Alcotest.(check int)
        (Printf.sprintf "crash@%d rolled one script back" n)
        1 (recover bus mem).Recovery.rp_rolled_back;
      Alcotest.(check bool)
        (Printf.sprintf "crash@%d restored the snapshot" n)
        true
        (snapshot bus = before))
    [ 2; 3; total / 2 ]

(* Topology is not enough: a rolled-back [c] respawned without its
   image would sit in Blocked_decode with a fresh pass counter while
   routes and roster look restored. Crash at every append of the
   committing script (the dry run included), recover, run 5 vms, and
   require whichever of c/c2 serves the slot to be running on c's
   state. *)
let test_crash_keeps_slot_state () =
  let _, mem, _, _, _ = commit_trial () in
  let total = List.length (Wal.records (ok (reopen mem))) in
  List.iter
    (fun ctl_crash ->
      let bus, mem, _, passes, _ = commit_trial ?ctl_crash () in
      if Bus.controller_down bus then ignore (recover bus mem : Recovery.report);
      Bus.run ~until:(Bus.now bus +. 5.0) bus;
      let label =
        match ctl_crash with
        | Some n -> Printf.sprintf "crash@%d" n
        | None -> "dry run"
      in
      match
        List.filter (fun i -> List.mem i (Bus.instances bus)) [ "c"; "c2" ]
      with
      | [ serving ] ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s is not waiting for an image" label serving)
          false
          (Bus.process_status bus ~instance:serving
          = Some Dr_interp.Machine.Blocked_decode);
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s kept c's %d passes" label serving passes)
          true
          (Ring.passes bus ~instance:serving >= passes)
      | l ->
        Alcotest.failf "%s: slot served by [%s]" label (String.concat "; " l))
    (None :: List.init total (fun i -> Some (i + 1)))

let test_crash_after_commit_keeps_replacement () =
  let bus = Ring.start (Ring.load ()) in
  let mem = Storage.memory () in
  Bus.set_wal bus (ok (Wal.create (Storage.storage_of_mem mem)));
  Bus.run ~until:8.0 bus;
  let dry_outcome =
    Script.run_sync bus (fun ~on_done ->
        Script.replace bus ~instance:"c" ~new_instance:"c2" ~deadline:25.0
          ~retry:Script.no_retry ~on_done ())
  in
  Alcotest.(check bool) "dry run commits" true (Result.is_ok dry_outcome);
  let total = List.length (Wal.records (ok (reopen mem))) in
  (* the last append of a committing script is its Commit record *)
  let bus = Ring.start (Ring.load ()) in
  let mem = Storage.memory () in
  Bus.set_wal bus (ok (Wal.create (Storage.storage_of_mem mem)));
  Faults.install bus ~seed:1 (Faults.plan ~ctl_crash:total ());
  Bus.run ~until:8.0 bus;
  ignore
    (Script.run_sync bus (fun ~on_done ->
         Script.replace bus ~instance:"c" ~new_instance:"c2" ~deadline:25.0
           ~retry:Script.no_retry ~on_done ()));
  Alcotest.(check bool) "controller died on the commit append" true
    (Bus.controller_down bus);
  Storage.crash mem;
  Bus.set_wal bus (ok (reopen mem));
  (match Recovery.replay bus with
  | Ok r ->
    Alcotest.(check int) "committed script needs no rollback" 0
      r.Recovery.rp_rolled_back;
    Alcotest.(check int) "one committed script seen" 1 r.Recovery.rp_committed
  | Error e -> Alcotest.failf "recovery: %s" e);
  Alcotest.(check bool) "replacement stands" true
    (List.mem "c2" (Bus.instances bus)
    && not (List.mem "c" (Bus.instances bus)))

(* A pre-copy replace of the deeprec worker, in place: the hook arms the
   freeze at the next point, and from the divulge on the script is the
   one without pre-copy. *)
let precopy_trial ?ctl_crash () =
  let bus = Bus.create ~hosts:Dr_workloads.Monitor.hosts () in
  let mem = Storage.memory () in
  Bus.set_wal bus (ok (Wal.create (Storage.storage_of_mem mem)));
  let prepared =
    match
      Dr_transform.Instrument.prepare
        (Dr_workloads.Synthetic.deeprec_payload ~depth:4 ~payload:2)
        ~points:Dr_workloads.Synthetic.deeprec_points
    with
    | Ok p -> p.Dr_transform.Instrument.prepared_program
    | Error e -> Alcotest.failf "instrument: %s" e
  in
  ok (Bus.register_program bus prepared);
  ok (Bus.spawn bus ~instance:"w" ~module_name:"deeppay" ~host:"hostA" ());
  (match ctl_crash with
  | Some n -> Faults.install bus ~seed:1 (Faults.plan ~ctl_crash:n ())
  | None -> ());
  Bus.run ~until:5.0 bus;
  let before = snapshot bus in
  let outcome =
    Script.run_sync bus (fun ~on_done ->
        Script.replace bus ~precopy:true ~instance:"w" ~new_instance:"w2"
          ~on_done ())
  in
  (bus, mem, before, outcome)

(* ----------------------------------------------------------- log format *)

(* how many times [needle] occurs in a record body *)
let occurrences needle body =
  let s = Bytes.unsafe_to_string body and n = String.length needle in
  let rec go i acc =
    if i + n > String.length s then acc
    else go (i + 1) (if String.sub s i n = needle then acc + 1 else acc)
  in
  go 0 0

(* the decoded entries of a log whose bodies hold a [needle] container,
   one per container *)
let containers needle mem =
  List.concat_map
    (fun (_, kind, body) ->
      List.init (occurrences needle body) (fun _ ->
          match Persist.decode ~kind body with
          | Ok (Persist.Entry { entry; _ }) -> entry
          | Ok r -> Alcotest.failf "container in %s" (Persist.describe r)
          | Error e -> Alcotest.failf "log does not decode: %s" e))
    (Wal.records (ok (reopen mem)))

let killed_bodies mem =
  List.filter_map
    (fun (_, kind, body) ->
      match Persist.decode ~kind body with
      | Ok (Persist.Entry { entry = Persist.Killed _; _ }) -> Some body
      | _ -> None)
    (Wal.records (ok (reopen mem)))

(* An armed image fault corrupts the bytes in flight, never the
   container the journal logs: the move quarantines and rolls back, the
   log's Divulged record still decodes to the image c captured (the
   same move without the fault logs it), and replaying the log after a
   controller crash at any of its appends returns c to service with its
   own passes. The container a caller ships is never written. *)
let test_image_fault_spares_the_log () =
  let logged_image mem =
    match containers "DRIMG2" mem with
    | [ Persist.Divulged { d_image; _ } ] -> d_image
    | l ->
      Alcotest.failf "expected one image container, in Divulged; found %d"
        (List.length l)
  in
  let _, clean, _, _, _ = commit_trial () in
  let captured = logged_image clean in
  let bus, mem, before, _, outcome = commit_trial ~corrupt:true () in
  Alcotest.(check bool) "the corrupted move fails" true (Result.is_error outcome);
  Alcotest.(check int) "one quarantine" 1 (List.length (Bus.quarantined bus));
  Alcotest.(check bool) "rolled back" true (snapshot bus = before);
  Alcotest.(check int64) "the logged image is the captured one"
    (Dr_state.Image.digest captured)
    (Dr_state.Image.digest (logged_image mem));
  let total = List.length (Wal.records (ok (reopen mem))) in
  List.iter
    (fun n ->
      let bus, mem, before, passes, _ =
        commit_trial ~ctl_crash:n ~corrupt:true ()
      in
      Alcotest.(check bool) "controller died" true (Bus.controller_down bus);
      ignore (recover bus mem : Recovery.report);
      Alcotest.(check bool)
        (Printf.sprintf "crash@%d restored the snapshot" n)
        true
        (snapshot bus = before);
      Bus.run ~until:(Bus.now bus +. 5.0) bus;
      Alcotest.(check bool)
        (Printf.sprintf "crash@%d: c serves on with its %d passes" n passes)
        true
        (Ring.passes bus ~instance:"c" >= passes))
    (List.init (total - 1) (fun i -> i + 1));
  let bus = Ring.start (Ring.load ()) in
  let container = Dr_state.Codec.encode_abstract captured in
  let intact = Bytes.copy container in
  Bus.arm_image_corruption bus ~instance:"c";
  (match
     Dr_reconfig.Primitives.translate_image bus ~for_instance:"c"
       ~dst_host:(Option.get (Bus.instance_host bus ~instance:"c"))
       container
   with
  | Ok _ -> Alcotest.fail "the corrupted copy decoded"
  | Error _ -> ());
  Alcotest.(check bool) "the caller's container is intact" true
    (Bytes.equal intact container)

(* A pre-copy replace journals its image once, in the Divulged entry,
   and a controller crash at any append before its Commit rolls the
   world back to the pre-script snapshot. *)
let test_precopy_logs_one_image () =
  let _, mem, _, outcome = precopy_trial () in
  Alcotest.(check bool) "dry run commits" true (Result.is_ok outcome);
  Alcotest.(check bool) "one image container, in Divulged" true
    (match containers "DRIMG2" mem with
    | [ Persist.Divulged _ ] -> true
    | _ -> false);
  let total = List.length (Wal.records (ok (reopen mem))) in
  List.iter
    (fun n ->
      let bus, mem, before, _ = precopy_trial ~ctl_crash:n () in
      Alcotest.(check bool) "controller died" true (Bus.controller_down bus);
      Storage.crash mem;
      Bus.set_wal bus (ok (reopen mem));
      (match Recovery.replay bus with
      | Ok r ->
        Alcotest.(check int)
          (Printf.sprintf "crash@%d rolled one script back" n)
          1 r.Recovery.rp_rolled_back
      | Error e -> Alcotest.failf "recovery: %s" e);
      Alcotest.(check bool)
        (Printf.sprintf "crash@%d restored the snapshot" n)
        true
        (snapshot bus = before))
    (List.init (total - 1) (fun i -> i + 1))

(* A script journals its divulged image once: in the Divulged entry,
   never again in the Killed entry that removes the old instance. The
   retired layouts must fail to decode, not be mis-read: the Killed
   entry that did carry the image (tag 6), and pre-copy's live base
   (tag 10) and delta divulge (tag 11). *)
let test_image_logged_once () =
  let _, mem, _, _, outcome = commit_trial () in
  Alcotest.(check bool) "replace commits" true (Result.is_ok outcome);
  let image =
    match containers "DRIMG2" mem with
    | [ Persist.Divulged { d_image; _ } ] -> d_image
    | l ->
      Alcotest.failf "expected one image container, in Divulged; found %d"
        (List.length l)
  in
  let killed = killed_bodies mem in
  Alcotest.(check int) "a Killed entry is logged" 1 (List.length killed);
  Alcotest.(check bool) "no Killed entry carries an image" true
    (List.for_all (fun body -> occurrences "DRIMG" body = 0) killed);
  let container = Bytes.to_string (Dr_state.Codec.encode_abstract image) in
  let module W = Dr_state.Codec.Wire in
  let module B = Dr_state.Bin_util in
  let entry tag fields =
    B.with_buffer @@ fun buf ->
    W.write_int buf 1;
    B.write_u8 buf tag;
    fields buf;
    Buffer.to_bytes buf
  in
  let old_killed =
    entry 6 (fun buf ->
        List.iter (W.write_string buf) [ "c"; "member"; "hostC" ];
        B.write_u8 buf 0 (* no spec *);
        B.write_u8 buf 1 (* an image *);
        W.write_string buf container;
        W.write_int buf 0 (* no queues *))
  in
  let precopy_base =
    entry 10 (fun buf ->
        W.write_string buf "c";
        W.write_string buf container)
  in
  let divulged_delta =
    entry 11 (fun buf ->
        (* the module cap: instance, module, host, no spec, no
           interfaces, no routes *)
        List.iter (W.write_string buf) [ "c"; "member"; "hostC" ];
        B.write_u8 buf 0;
        List.iter (W.write_int buf) [ 0; 0; 0 ];
        W.write_string buf "DRIMGD1\001")
  in
  let kind = Persist.kind_of (Persist.Entry { sid = 1; entry = Spawned "c" }) in
  List.iter
    (fun (what, body) ->
      Alcotest.(check bool) (what ^ " fails to decode") true
        (Result.is_error (Persist.decode ~kind body)))
    [ ("an old-layout Killed body", old_killed);
      ("a pre-copy base (tag 10)", precopy_base);
      ("a delta divulge (tag 11)", divulged_delta) ]

let test_replay_idempotent () =
  let bus, _, _, _, crashed = deadline_trial ~ctl_crash:3 () in
  Alcotest.(check bool) "crashed" true crashed;
  (* the first replay already ran inside deadline_trial; a second must
     find a clean, checkpointed log *)
  match Recovery.replay bus with
  | Ok r ->
    Alcotest.(check int) "nothing left to roll back" 0
      (r.Recovery.rp_rolled_back + r.Recovery.rp_resumed);
    Alcotest.(check int) "log was checkpointed" 0 r.Recovery.rp_records
  | Error e -> Alcotest.failf "second replay: %s" e

let test_scan_rejects_orphan_records () =
  let _, wal = mem_wal () in
  ignore
    (Wal.append wal ~kind:(Persist.kind_of (Persist.Commit { sid = 7 }))
       (Persist.encode (Persist.Commit { sid = 7 }))
      : int);
  match Recovery.scan wal with
  | Error e ->
    Alcotest.(check bool) "error names the unknown script" true
      (contains "unknown script" e)
  | Ok _ -> Alcotest.fail "commit without begin accepted"

let test_journal_accessors () =
  let bus = Ring.start (Ring.load ()) in
  let mem = Storage.memory () in
  Bus.set_wal bus (ok (Wal.create (Storage.storage_of_mem mem)));
  Bus.run ~until:2.0 bus;
  let j = Journal.create bus ~label:"probe" in
  Alcotest.(check string) "label" "probe" (Journal.label j);
  Alcotest.(check bool) "durable sid assigned" true (Journal.sid j >= 1);
  Alcotest.(check int) "empty journal" 0 (Journal.entry_count j);
  Journal.add_route j ~src:("a", "x1") ~dst:("b", "x1");
  Journal.add_route j ~src:("a", "x2") ~dst:("b", "x2");
  Alcotest.(check int) "two entries" 2 (Journal.entry_count j);
  Journal.rollback j ~reason:"probe done";
  Alcotest.(check int) "empty after rollback" 0 (Journal.entry_count j);
  Alcotest.(check bool) "undo lines indexed [i/2]" true
    (List.exists (fun l -> contains "probe [2/2]:" l) (rollback_lines bus)
    && List.exists (fun l -> contains "probe [1/2]:" l) (rollback_lines bus))

(* ------------------------------------------------------- faults parsing *)

let test_ctlcrash_parse () =
  (match Faults.parse_plan "seed=3,ctlcrash@4" with
  | Ok (seed, plan) ->
    Alcotest.(check int) "seed" 3 seed;
    Alcotest.(check (option int)) "ctlcrash index" (Some 4) plan.Faults.fp_ctl_crash
  | Error e -> Alcotest.failf "parse: %s" e);
  (match Faults.parse_plan "ctlcrash@0" with
  | Error e -> Alcotest.(check bool) "zero rejected" true (contains "start at 1" e)
  | Ok _ -> Alcotest.fail "ctlcrash@0 accepted");
  (match Faults.parse_plan "ctlcrash@x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ctlcrash@x accepted");
  match Faults.parse_plan "ctlcrash@2,ctlcrash@5" with
  | Error e -> Alcotest.(check bool) "duplicate rejected" true (contains "duplicate" e)
  | Ok _ -> Alcotest.fail "duplicate ctlcrash accepted"

(* ----------------------------------------------------------------- run *)

let () =
  Alcotest.run "wal"
    [ ( "log",
        [ Alcotest.test_case "roundtrip and reopen" `Quick test_roundtrip;
          Alcotest.test_case "crash loses unsynced tail" `Quick
            test_crash_loses_unsynced_tail;
          Alcotest.test_case "torn tail truncated" `Quick
            test_torn_tail_truncated;
          Alcotest.test_case "early damage fails loudly" `Quick
            test_early_segment_damage_fails_loudly;
          Alcotest.test_case "checkpoint, GC, state" `Quick
            test_checkpoint_gc_and_state;
          Alcotest.test_case "empty log" `Quick test_empty_log ] );
      ( "file backend",
        [ Alcotest.test_case "roundtrip on disk" `Quick
            test_file_backend_roundtrip;
          Alcotest.test_case "torn tail on disk" `Quick
            test_file_backend_torn_tail ] );
      ( "decoder fuzz",
        [ fuzz_truncated_tail; fuzz_bit_flip; fuzz_duplicated_segment;
          fuzz_empty_segment; fuzz_persist_decode_total ] );
      ("monitors", [ fuzz_invariant_monitor ]);
      ( "crash recovery",
        [ Alcotest.test_case "replayed rollback trace parity" `Quick
            test_trace_parity;
          Alcotest.test_case "rollback lines carry label+index" `Quick
            test_rollback_lines_carry_label_and_index;
          Alcotest.test_case "crash mid-script rolls back" `Quick
            test_crash_mid_script_rolls_back;
          Alcotest.test_case "crash at every append keeps the slot's state"
            `Quick test_crash_keeps_slot_state;
          Alcotest.test_case "precopy image logged once and recovered" `Quick
            test_precopy_logs_one_image;
          Alcotest.test_case "image fault spares the log"
            `Quick test_image_fault_spares_the_log;
          Alcotest.test_case "each divulged image logged once" `Quick
            test_image_logged_once;
          Alcotest.test_case "crash after commit keeps replacement" `Quick
            test_crash_after_commit_keeps_replacement;
          Alcotest.test_case "replay is idempotent" `Quick
            test_replay_idempotent;
          Alcotest.test_case "scan rejects orphan records" `Quick
            test_scan_rejects_orphan_records;
          Alcotest.test_case "journal accessors" `Quick test_journal_accessors
        ] );
      ("faults", [ Alcotest.test_case "ctlcrash parsing" `Quick test_ctlcrash_parse ])
    ]
