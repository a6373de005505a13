module Bus = Dr_bus.Bus
module Wal = Dr_wal.Wal
module E = Dr_sim.Trace_event

type status =
  | Committed
  | Aborted
  | Rolling_back of { undone : int; reason : string }
  | In_flight

type script = {
  sc_sid : int;
  sc_label : string;
  sc_entries : Journal.entry list;
  sc_status : status;
}

(* mutable accumulator while walking the log *)
type acc = {
  a_sid : int;
  a_label : string;
  mutable a_entries : Persist.entry list;  (* newest first *)
  mutable a_committed : bool;
  mutable a_abort : string option;
  mutable a_undone : int;
  mutable a_abort_done : bool;
}

let scan wal =
  let scripts : (int, acc) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let fail fmt = Format.kasprintf (fun s -> failwith s) fmt in
  let lookup ~what lsn sid =
    match Hashtbl.find_opt scripts sid with
    | Some a -> a
    | None -> fail "lsn %d: %s for unknown script #%d" lsn what sid
  in
  let terminated a = a.a_committed || a.a_abort_done in
  try
    List.iter
      (fun (lsn, kind, body) ->
        (* wave records share the log but not the per-script grammar;
           they are Rolling.waves's concern *)
        if Persist.is_wave_kind kind then ()
        else
        match Persist.decode ~kind body with
        | Error e -> fail "lsn %d: %s" lsn e
        | Ok record -> (
          match record with
          | Persist.Wave_begin _ | Persist.Wave_replica_done _
          | Persist.Wave_commit _ | Persist.Wave_abort _ ->
            assert false (* filtered by kind above *)
          | Persist.Begin { sid; label } ->
            if Hashtbl.mem scripts sid then
              fail "lsn %d: duplicate begin for script #%d" lsn sid;
            Hashtbl.replace scripts sid
              { a_sid = sid;
                a_label = label;
                a_entries = [];
                a_committed = false;
                a_abort = None;
                a_undone = 0;
                a_abort_done = false };
            order := sid :: !order
          | Persist.Entry { sid; entry } ->
            let a = lookup ~what:"entry" lsn sid in
            if terminated a then
              fail "lsn %d: entry after terminator for script #%d" lsn sid;
            if Option.is_some a.a_abort then
              fail "lsn %d: entry during rollback of script #%d" lsn sid;
            a.a_entries <- entry :: a.a_entries
          | Persist.Commit { sid } ->
            let a = lookup ~what:"commit" lsn sid in
            if terminated a || Option.is_some a.a_abort then
              fail "lsn %d: commit of finished script #%d" lsn sid;
            a.a_committed <- true
          | Persist.Abort { sid; reason } ->
            let a = lookup ~what:"abort" lsn sid in
            if terminated a || Option.is_some a.a_abort then
              fail "lsn %d: abort of finished script #%d" lsn sid;
            a.a_abort <- Some reason
          | Persist.Undo_done { sid; index } ->
            let a = lookup ~what:"undo-done" lsn sid in
            if terminated a then
              fail "lsn %d: undo-done after terminator for script #%d" lsn sid;
            if Option.is_none a.a_abort then
              fail "lsn %d: undo-done outside rollback of script #%d" lsn sid;
            let expected = List.length a.a_entries - a.a_undone in
            if index <> expected then
              fail "lsn %d: undo-done step %d of script #%d, expected %d" lsn
                index sid expected;
            a.a_undone <- a.a_undone + 1
          | Persist.Abort_done { sid } ->
            let a = lookup ~what:"abort-done" lsn sid in
            if terminated a then
              fail "lsn %d: abort-done after terminator for script #%d" lsn sid;
            if Option.is_none a.a_abort then
              fail "lsn %d: abort-done outside rollback of script #%d" lsn sid;
            a.a_abort_done <- true))
      (Wal.records wal);
    Ok
      (List.rev_map
         (fun sid ->
           let a = Hashtbl.find scripts sid in
           { sc_sid = a.a_sid;
             sc_label = a.a_label;
             sc_entries = List.rev a.a_entries;
             sc_status =
               (if a.a_committed then Committed
                else
                  match a.a_abort with
                  | None -> In_flight
                  | Some reason ->
                    if a.a_abort_done then Aborted
                    else Rolling_back { undone = a.a_undone; reason }) })
         !order)
  with
  | Failure e -> Error e
  | Invalid_argument e -> Error e (* Wal.records on a damaged log *)

(* ------------------------------------------------------------- waves *)

type wave_status = Wave_committed | Wave_aborted of string | Wave_open

type wave = {
  wv_wid : int;
  wv_target : string;
  wv_group : (string * string) list;
  wv_done : (string * string) list;
  wv_status : wave_status;
}

type wacc = {
  wa_wid : int;
  wa_target : string;
  wa_group : (string * string) list;
  mutable wa_done : (string * string) list;  (* newest first *)
  mutable wa_status : wave_status;
}

let waves wal =
  let tbl : (int, wacc) Hashtbl.t = Hashtbl.create 4 in
  let order = ref [] in
  let fail fmt = Format.kasprintf (fun s -> failwith s) fmt in
  let lookup ~what lsn wid =
    match Hashtbl.find_opt tbl wid with
    | Some a -> a
    | None -> fail "lsn %d: %s for unknown wave #%d" lsn what wid
  in
  try
    List.iter
      (fun (lsn, kind, body) ->
        if not (Persist.is_wave_kind kind) then ()
        else
          match Persist.decode ~kind body with
          | Error e -> fail "lsn %d: %s" lsn e
          | Ok (Persist.Wave_begin { wid; w_group; w_target }) ->
            if Hashtbl.mem tbl wid then
              fail "lsn %d: duplicate begin for wave #%d" lsn wid;
            Hashtbl.replace tbl wid
              { wa_wid = wid; wa_target = w_target; wa_group = w_group;
                wa_done = []; wa_status = Wave_open };
            order := wid :: !order
          | Ok (Persist.Wave_replica_done { wid; wr_slot; wr_instance }) ->
            let a = lookup ~what:"replica-done" lsn wid in
            if a.wa_status <> Wave_open then
              fail "lsn %d: replica-done after terminator for wave #%d" lsn wid;
            if not (List.mem_assoc wr_slot a.wa_group) then
              fail "lsn %d: replica-done for unknown slot %s of wave #%d" lsn
                wr_slot wid;
            a.wa_done <- (wr_slot, wr_instance) :: a.wa_done
          | Ok (Persist.Wave_commit { wid }) ->
            let a = lookup ~what:"commit" lsn wid in
            if a.wa_status <> Wave_open then
              fail "lsn %d: commit of finished wave #%d" lsn wid;
            a.wa_status <- Wave_committed
          | Ok (Persist.Wave_abort { wid; w_reason }) ->
            let a = lookup ~what:"abort" lsn wid in
            if a.wa_status <> Wave_open then
              fail "lsn %d: abort of finished wave #%d" lsn wid;
            a.wa_status <- Wave_aborted w_reason
          | Ok _ -> assert false (* is_wave_kind filtered *))
      (Wal.records wal);
    Ok
      (List.rev_map
         (fun wid ->
           let a = Hashtbl.find tbl wid in
           { wv_wid = a.wa_wid;
             wv_target = a.wa_target;
             wv_group = a.wa_group;
             wv_done = List.rev a.wa_done;
             wv_status = a.wa_status })
         !order)
  with
  | Failure e -> Error e
  | Invalid_argument e -> Error e

type report = {
  rp_records : int;
  rp_scripts : int;
  rp_committed : int;
  rp_aborted : int;
  rp_rolled_back : int;
  rp_resumed : int;
}

let replay bus =
  match Bus.wal bus with
  | None -> Error "no control log attached to this bus"
  | Some wal -> (
    match scan wal with
    | Error _ as e -> e
    | Ok scripts ->
      let rp_records = List.length (Wal.records wal) in
      Bus.recover_controller bus;
      List.iter (fun s -> Bus.note_script_id bus s.sc_sid) scripts;
      let count p = List.length (List.filter p scripts) in
      let pending =
        (* newest first: concurrent scripts unwind LIFO, mirroring how a
           live controller nests them *)
        List.sort
          (fun a b -> compare b.sc_sid a.sc_sid)
          (List.filter
             (fun s ->
               match s.sc_status with
               | In_flight | Rolling_back _ -> true
               | Committed | Aborted -> false)
             scripts)
      in
      Bus.record bus
        (E.Replay_started
           { records = rp_records;
             scripts = List.length scripts;
             unterminated = List.length pending });
      (* account the scripts we are about to unwind as open, so the
         checkpoint policy cannot garbage-collect one script's records
         while a sibling is still mid-rollback *)
      List.iter (fun _ -> Bus.ctl_script_opened bus) pending;
      let rolled = ref 0 and resumed = ref 0 in
      List.iter
        (fun s ->
          let j =
            Journal.restore bus ~label:s.sc_label ~sid:s.sc_sid
              ~entries:s.sc_entries
          in
          match s.sc_status with
          | In_flight ->
            incr rolled;
            Journal.rollback j ~reason:"controller crashed"
          | Rolling_back { undone; reason } ->
            incr resumed;
            Journal.resume_rollback j ~reason ~already_undone:undone
              ~abort_logged:true
          | Committed | Aborted -> assert false)
        pending;
      Wal.checkpoint wal;
      Bus.record bus (E.Replay_completed (Wal.checkpoint_lsn wal));
      Ok
        { rp_records;
          rp_scripts = List.length scripts;
          rp_committed = count (fun s -> s.sc_status = Committed);
          rp_aborted = count (fun s -> s.sc_status = Aborted);
          rp_rolled_back = !rolled;
          rp_resumed = !resumed })

let pp_report ppf r =
  Format.fprintf ppf
    "%d record(s), %d script(s): %d committed, %d aborted, %d rolled back, %d \
     resumed"
    r.rp_records r.rp_scripts r.rp_committed r.rp_aborted r.rp_rolled_back
    r.rp_resumed
