module Bus = Dr_bus.Bus
module E = Dr_sim.Trace_event
module Wal = Dr_wal.Wal
module Value = Dr_state.Value
module Image = Dr_state.Image

type entry = Persist.entry =
  | Added_route of Bus.endpoint * Bus.endpoint
  | Deleted_route of Bus.endpoint * Bus.endpoint
  | Moved_queue of { mq_src : Bus.endpoint; mq_dst : Bus.endpoint }
  | Dropped_queue of Bus.endpoint * Value.t list
  | Spawned of string
  | Killed of {
      k_instance : string;
      k_module : string;
      k_host : string;
      k_spec : Dr_mil.Spec.module_spec option;
      k_queues : (string * Value.t list) list;
    }
  | Armed_divulge of string
  | Divulged of {
      d_cap : Primitives.module_cap;
      d_image : Image.t;
      d_container : bytes;
    }
  | Renamed_transport of { rt_old : string; rt_new : string; rt_fence : bool }

type t = {
  bus : Bus.t;
  label : string;
  sid : int;  (* 0 when the bus has no control log *)
  mutable entries : entry list;  (* newest first *)
}

(* checkpoint the control log once this much has accumulated and no
   script is open (a checkpoint garbage-collects everything before it,
   so an open script's records must never be behind one) *)
let checkpoint_after = 64 * 1024

(* Append one control record. Returns [true] when a log is attached —
   the caller then places the controller-crash tick ([Bus.ctl_tick])
   after the corresponding bus operation has applied, so a crash always
   lands on a durable-record/applied-operation boundary and undo stays
   exact. *)
let log t record =
  match Bus.wal t.bus with
  | None -> false
  | Some wal ->
    ignore (Persist.append wal record : int);
    true

let maybe_checkpoint t =
  match Bus.wal t.bus with
  | Some wal
    when Bus.ctl_scripts_open t.bus = 0
         && Wal.bytes_since_checkpoint wal >= checkpoint_after ->
    Wal.checkpoint wal
  | _ -> ()

let create bus ~label =
  match Bus.wal bus with
  | None -> { bus; label; sid = 0; entries = [] }
  | Some _ ->
    let sid = Bus.next_script_id bus in
    let t = { bus; label; sid; entries = [] } in
    ignore (log t (Persist.Begin { sid; label }) : bool);
    Bus.ctl_script_opened bus;
    Bus.ctl_tick bus;
    t

(* Recovery: rebuild a journal from entries read back off the log.
   Nothing is appended (the records are already durable) and the
   open-script accounting is recovery's business, not ours. *)
let restore bus ~label ~sid ~entries =
  { bus; label; sid; entries = List.rev entries }

let entry_count t = List.length t.entries
let label t = t.label
let sid t = t.sid

let push t e = t.entries <- e :: t.entries

(* ----------------------------------------------------------- primitives *)

(* Each primitive follows the write-ahead discipline: the redo+undo
   record is appended (durably) first, the bus operation applies
   second, and the crash tick runs last — so every logged record's
   operation has taken effect when a controller crash fires, and
   recovery's undo of the logged prefix is exact. *)
let logged_op t entry apply =
  let logged = log t (Persist.Entry { sid = t.sid; entry }) in
  apply ();
  push t entry;
  if logged then Bus.ctl_tick t.bus

let add_route t ~src ~dst =
  logged_op t (Added_route (src, dst)) (fun () -> Bus.add_route t.bus ~src ~dst)

let del_route t ~src ~dst =
  logged_op t (Deleted_route (src, dst)) (fun () ->
      Bus.del_route t.bus ~src ~dst)

let copy_queue t ~src ~dst =
  logged_op t
    (Moved_queue { mq_src = src; mq_dst = dst })
    (fun () -> Bus.copy_queue t.bus ~src ~dst)

let drop_queue t ep =
  let values = Bus.peek_queue t.bus ep in
  logged_op t (Dropped_queue (ep, values)) (fun () -> Bus.drop_queue t.bus ep)

let spawn t ~instance ~module_name ~host ?spec ?status () =
  (* the one primitive whose bus operation can fail: apply first, log
     only the success — a failed spawn leaves nothing to undo, and a
     record for an unapplied operation would make replay respawn a
     process that never ran. The crash tick still follows the append. *)
  match Bus.spawn t.bus ~instance ~module_name ~host ?spec ?status () with
  | Error _ as e -> e
  | Ok () ->
    let logged = log t (Persist.Entry { sid = t.sid; entry = Spawned instance }) in
    push t (Spawned instance);
    if logged then Bus.ctl_tick t.bus;
    Ok ()

let instance_queues bus ~instance ~ifaces =
  List.map (fun iface -> (iface, Bus.peek_queue bus (instance, iface))) ifaces

let kill t ~instance ~module_name ~host ?spec () =
  let ifaces =
    match Bus.instance_spec t.bus ~instance with
    | Some s -> List.map (fun i -> i.Dr_mil.Spec.if_name) s.ifaces
    | None ->
      List.sort_uniq String.compare
        (List.map snd
           (List.filter_map
              (fun ((src, dst) : Bus.endpoint * Bus.endpoint) ->
                if String.equal (fst dst) instance then Some dst
                else if String.equal (fst src) instance then Some src
                else None)
              (Bus.all_routes t.bus)))
  in
  let k_queues = instance_queues t.bus ~instance ~ifaces in
  logged_op t
    (Killed
       { k_instance = instance;
         k_module = module_name;
         k_host = host;
         k_spec = spec;
         k_queues })
    (fun () -> Bus.kill t.bus ~instance)

let arm_divulge t ~instance callback =
  logged_op t (Armed_divulge instance) (fun () ->
      Bus.on_divulge t.bus ~instance callback)

let note_divulged t ~cap ~image ~container =
  (* no bus operation — the record spills the container the move ships
     (its own DRIMG2 checksum inside the log record's CRC) so recovery
     can return the old instance to service; it is the script's one
     copy, which a later [Killed] undo re-deposits too *)
  logged_op t
    (Divulged { d_cap = cap; d_image = image; d_container = container })
    (fun () -> ())

(* Deliberately a complete no-op (no journal entry, no bus call) when
   no transport is installed: on the classic fire-and-forget bus a
   rename has nothing to move, and journalling it anyway would change
   the "rolling back N step(s)" counts of fault-free runs (pinned by
   the golden traces). *)
let rename_transport t ~old_instance ~new_instance ~fence =
  if Bus.has_transport t.bus then
    logged_op t
      (Renamed_transport
         { rt_old = old_instance; rt_new = new_instance; rt_fence = fence })
      (fun () ->
        Bus.transport_rename t.bus ~old_instance ~new_instance ~fence)

let rebind t batch =
  List.iter
    (fun (command : Primitives.bind_command) ->
      match command with
      | Primitives.Add (src, dst) -> add_route t ~src ~dst
      | Primitives.Del (src, dst) -> del_route t ~src ~dst
      | Primitives.Copy_queue (src, dst) -> copy_queue t ~src ~dst
      | Primitives.Remove_queue ep -> drop_queue t ep)
    (Primitives.batch_commands batch)

(* ----------------------------------------------------------- undo *)

let reinject bus ~instance queues =
  List.iter
    (fun (iface, values) ->
      List.iter (fun v -> Bus.inject bus ~dst:(instance, iface) v) values)
    queues

let restore_instance t ~step ~restored ~instance ~module_name ~host ?spec ~image
    ~queues () =
  if Option.is_some (Bus.process_status t.bus ~instance) then begin
    (* already running — a pre-crash undo step restored it before the
       controller died and recovery is re-walking the tail *)
    Hashtbl.replace restored instance ();
    Bus.record t.bus (E.Undo_in_service { step; instance })
  end
  else
    match
      Bus.spawn t.bus ~instance ~module_name ~host ?spec ~status:"clone" ()
    with
    | Error e ->
      Bus.record t.bus
        (E.Undo_restore_failed { step; instance; host; error = e })
    | Ok () ->
      (match image with
      | Some image -> Bus.deposit_state t.bus ~instance image
      | None -> ());
      reinject t.bus ~instance queues;
      Hashtbl.replace restored instance ();
      Bus.record t.bus (E.Undo_restored { step; instance })

(* The image a [Killed] undo re-deposits: the newest one [instance]
   divulged in this script. The log holds it once, in the [Divulged]
   entry; a stateless kill finds none. *)
let divulged_image entries ~instance =
  List.find_map
    (function
      | Divulged { d_cap; d_image; _ }
        when String.equal d_cap.Primitives.cap_instance instance ->
        Some d_image
      | _ -> None)
    entries

let undo t ~step ~restored ~entries = function
  | Added_route (src, dst) ->
    Bus.del_route t.bus ~src ~dst;
    Bus.record t.bus (E.Undo_route_removed { step; src; dst })
  | Deleted_route (src, dst) ->
    Bus.add_route t.bus ~src ~dst;
    Bus.record t.bus (E.Undo_route_restored { step; src; dst })
  | Moved_queue { mq_src; mq_dst } ->
    (* a script moves queues only at its final instant, so at rollback
       time the destination still holds exactly the moved messages (no
       engine event has fired in between); hand them back *)
    let values = Bus.take_queue t.bus mq_dst in
    List.iter (fun v -> Bus.inject t.bus ~dst:mq_src v) values;
    Bus.record t.bus
      (E.Undo_queue_returned { step; count = List.length values; ep = mq_src })
  | Dropped_queue (ep, values) ->
    List.iter (fun v -> Bus.inject t.bus ~dst:ep v) values;
    Bus.record t.bus
      (E.Undo_queue_refilled { step; ep; count = List.length values })
  | Spawned instance ->
    Bus.kill t.bus ~instance;
    Bus.record t.bus (E.Undo_spawn_removed { step; instance })
  | Killed { k_instance; k_module; k_host; k_spec; k_queues } ->
    restore_instance t ~step ~restored ~instance:k_instance
      ~module_name:k_module ~host:k_host ?spec:k_spec
      ~image:(divulged_image entries ~instance:k_instance)
      ~queues:k_queues ()
  | Armed_divulge instance ->
    Bus.cancel_divulge t.bus ~instance;
    Bus.record t.bus (E.Undo_divulge_disarmed { step; instance })
  | Renamed_transport { rt_old; rt_new; rt_fence } ->
    Bus.transport_rename t.bus ~old_instance:rt_new ~new_instance:rt_old
      ~fence:rt_fence;
    Bus.record t.bus
      (E.Undo_transport_returned
         { step; from_instance = rt_new; to_instance = rt_old })
  | Divulged { d_cap; d_image; _ } ->
    (* The target complied: it divulged and is halting — it may even
       still be [Ready], winding down the tail of the quantum that
       divulged, but its continuation is spent either way. Return it to
       service with its own image, unless an earlier undo step (a
       [Killed] entry) already resurrected it. *)
    let instance = d_cap.Primitives.cap_instance in
    if Hashtbl.mem restored instance then
      Bus.record t.bus (E.Undo_in_service { step; instance })
    else if Bus.host_is_down t.bus d_cap.Primitives.cap_host then
      (* killing the shell and failing the respawn would lose the
         instance outright; leave it crashed for a supervisor *)
      Bus.record t.bus
        (E.Undo_host_down { step; instance; host = d_cap.Primitives.cap_host })
    else begin
      let queues =
        instance_queues t.bus ~instance ~ifaces:d_cap.Primitives.cap_ifaces
      in
      if Option.is_some (Bus.process_status t.bus ~instance) then
        Bus.kill t.bus ~instance;
      restore_instance t ~step ~restored ~instance
        ~module_name:d_cap.Primitives.cap_module
        ~host:d_cap.Primitives.cap_host ?spec:d_cap.Primitives.cap_spec
        ~image:(Some d_image) ~queues ()
    end

(* drop the [n] newest entries (already undone before a crash) *)
let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r

let resume_rollback t ~reason ~already_undone ~abort_logged =
  match t.entries with
  | [] -> ()
  | entries ->
    t.entries <- [];
    let total = List.length entries in
    let remaining = drop already_undone entries in
    if already_undone = 0 then
      Bus.record t.bus (E.Rollback_started { label = t.label; total; reason })
    else
      Bus.record t.bus
        (E.Rollback_resumed
           { label = t.label; at = total - already_undone; total; reason });
    let logged =
      if abort_logged then Option.is_some (Bus.wal t.bus)
      else log t (Persist.Abort { sid = t.sid; reason })
    in
    if logged && not abort_logged then Bus.ctl_tick t.bus;
    let restored = Hashtbl.create 4 in
    List.iteri
      (fun j e ->
        let index = total - already_undone - j in
        let step =
          { E.us_label = t.label; us_index = index; us_total = total }
        in
        undo t ~step ~restored ~entries e;
        if logged then begin
          ignore (log t (Persist.Undo_done { sid = t.sid; index }) : bool);
          Bus.ctl_tick t.bus
        end)
      remaining;
    if logged then begin
      ignore (log t (Persist.Abort_done { sid = t.sid }) : bool);
      Bus.ctl_script_closed t.bus;
      Bus.ctl_tick t.bus;
      maybe_checkpoint t
    end

let rollback t ~reason =
  resume_rollback t ~reason ~already_undone:0 ~abort_logged:false

let commit t =
  let logged = log t (Persist.Commit { sid = t.sid }) in
  t.entries <- [];
  if logged then begin
    Bus.ctl_script_closed t.bus;
    Bus.ctl_tick t.bus;
    maybe_checkpoint t
  end
