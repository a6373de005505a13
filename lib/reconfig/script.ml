module P = Primitives
module Bus = Dr_bus.Bus
module E = Dr_sim.Trace_event
module Image = Dr_state.Image
module Codec = Dr_state.Codec
module Metrics = Dr_obs.Metrics
module Machine = Dr_interp.Machine

type outcome = (string, string) result

(* --------------------------------------------------------------- spans *)

(* Disruption-window spans. Each replace/migrate/replicate attempt opens
   a root span at signal time; at divulge time the old machine's
   virtual-time stamps decompose the window into

     signal  — signal sent -> handler frame pushed
     drain   — handler pushed -> first mh_capture (unwinding to a point)
     capture — first mh_capture -> image divulged
     translate — zero-width marker carrying byte sizes
     restore — deposit -> the clone's last mh_restore (lazy: the clone
               executes its restore dispatch after the script returns)

   Span construction reads clocks and machine stamps only — it never
   schedules events or touches the trace, so metrics-on runs replay the
   exact golden event sequence. *)

let open_span bus ~kind ~attrs =
  match Bus.metrics bus with
  | None -> None
  | Some r -> Some (Metrics.span r ~attrs ~kind ~start:(Bus.now bus) ())

let fail_span bus sp reason =
  match sp with
  | None -> ()
  | Some s ->
    Metrics.set_attr s "outcome" "error";
    Metrics.set_attr s "reason" reason;
    Metrics.finish s ~at:(Bus.now bus)

(* Children with concrete times, built at divulge time from the old
   machine's stamps; the restore child (and the root) end lazily when
   the restored machine consumes its last record.

   Pre-copy runs open the root span at the freeze (the old machine's
   capture stamp) rather than at the signal: until the capture block
   ran, the module was still serving, so the signal and drain children
   collapse to zero width. They add one zero-width [precopy] marker
   whose [wait] attr is how long the module kept serving after the
   request. The identity total == signal + drain + capture + translate
   + restore holds in every mode. [retx_wait] is the reliable layer's
   retransmission backoff accumulated inside the window — the part of
   drain that is network stall, not quiescence. [image_in] and
   [image_out] are sized only when there is a span to record them on,
   so an untraced move pays no size walk here. *)
let divulge_children bus sp ~t0 ~old_machine ~restored_instance ~image_in
    ~image_out ?precopy_wait ?retx_wait () =
  match sp with
  | None -> ()
  | Some s ->
    let t_div = Bus.now bus in
    (* clamp the machine stamps into [t0, t_div]: under pre-copy the
       window origin is the freeze, so the signal/drain phases (which
       happened while the module was still serving) collapse to zero
       width and the identity still tiles *)
    let t_sig =
      Float.max t0 (Option.value ~default:t0 (Machine.signal_handled_at old_machine))
    in
    let t_cap =
      Float.max t_sig
        (Option.value ~default:t_div (Machine.capture_started_at old_machine))
    in
    let interval kind a b =
      Metrics.finish (Metrics.child s ~kind ~start:a ()) ~at:b
    in
    interval "signal" t0 t_sig;
    let dr = Metrics.child s ~kind:"drain" ~start:t_sig () in
    (match retx_wait with
    | Some w when w > 0.0 ->
      Metrics.set_attr dr "retransmit_wait" (Printf.sprintf "%.3f" w);
      (match Bus.metrics bus with
      | Some r -> Metrics.observe r "drain.retransmit" w
      | None -> ())
    | _ -> ());
    Metrics.finish dr ~at:t_cap;
    interval "capture" t_cap t_div;
    (match precopy_wait with
    | Some wait ->
      let pc = Metrics.child s ~kind:"precopy" ~start:t_div () in
      Metrics.set_attr pc "wait" (Printf.sprintf "%.3f" wait);
      Metrics.finish pc ~at:t_div
    | None -> ());
    let tr = Metrics.child s ~kind:"translate" ~start:t_div () in
    Metrics.set_attr tr "bytes_in" (string_of_int (Image.byte_size image_in));
    Metrics.set_attr tr "bytes_out"
      (string_of_int (Image.byte_size image_out));
    Metrics.finish tr ~at:t_div;
    let rs = Metrics.child s ~kind:"restore" ~start:t_div () in
    Metrics.set_attr s "outcome" "ok";
    match Bus.machine bus ~instance:restored_instance with
    | Some clone ->
      let done_at () = Machine.restore_done_at clone in
      Metrics.finish_with rs done_at;
      Metrics.finish_with s done_at
    | None ->
      Metrics.finish rs ~at:t_div;
      Metrics.finish s ~at:t_div

type retry = { attempts : int; backoff : float; alt_hosts : string list }

let no_retry = { attempts = 1; backoff = 0.0; alt_hosts = [] }

(* The rebinding batch of Fig. 5: for every interface of the old module,
   retarget outgoing and incoming routes to the new instance of the same
   interface name, move pending queues across, and drop the old ones. *)
let rebind_batch (cap : P.module_cap) ~new_instance =
  let batch = P.bind_cap () in
  List.iter
    (fun ((src : Bus.endpoint), dst) ->
      P.edit_bind batch (P.Del (src, dst));
      P.edit_bind batch (P.Add ((new_instance, snd src), dst)))
    cap.cap_out_routes;
  List.iter
    (fun (src, (dst : Bus.endpoint)) ->
      P.edit_bind batch (P.Del (src, dst));
      P.edit_bind batch (P.Add (src, (new_instance, snd dst))))
    cap.cap_in_routes;
  List.iter
    (fun iface ->
      P.edit_bind batch
        (P.Copy_queue ((cap.cap_instance, iface), (new_instance, iface)));
      P.edit_bind batch (P.Remove_queue (cap.cap_instance, iface)))
    cap.cap_ifaces;
  batch

(* Transactional replacement: every primitive goes through a {!Journal};
   a failure at any point — spawn error, translation error, deadline
   expiry while the module travels to its reconfiguration point — rolls
   the journal back, leaving the old configuration fully routed. On the
   success path the journal commits silently, so the trace is exactly
   the Fig. 5 sequence it always was.

   With [~precopy:true] the freeze signal is deferred: a one-shot hook
   parks at the target's next reconfiguration point, records how long
   the module served until then, and only then signals. From the
   divulge on, the move is the one without pre-copy: the full image is
   translated, journalled and deposited, so pre-copy moves the window's
   origin but cannot change the outcome. *)
let replace bus ?(span_kind = "replace") ?(precopy = false) ~instance
    ~new_instance ?new_module ?new_host ?deadline ?(retry = no_retry) ~on_done
    () =
  let rec attempt n ~host_override =
    let finish outcome =
      match outcome with
      | Ok _ -> on_done outcome
      | Error e when n < retry.attempts ->
        let next_host =
          match retry.alt_hosts with
          | [] -> host_override
          | hosts -> Some (List.nth hosts ((n - 1) mod List.length hosts))
        in
        Bus.record bus
          (E.Replace_retry
             { instance;
               attempt = n;
               error = e;
               next_host;
               backoff = retry.backoff });
        Dr_sim.Engine.schedule
          ~label:
            (Dr_sim.Engine.label
               ~info:(Printf.sprintf "replace %s: retry" instance)
               "ctl")
          (Bus.engine bus)
          ~delay:(Float.max 0.0 retry.backoff)
          (fun () ->
            (* a retry scheduled before the controller died must not run
               as a ghost of it *)
            if not (Bus.controller_down bus) then
              attempt (n + 1) ~host_override:next_host)
      | Error _ -> on_done outcome
    in
    match P.obj_cap bus ~instance with
    | Error e -> finish (Error e)
    | Ok cap0 ->
      let module_name = Option.value ~default:cap0.cap_module new_module in
      let host =
        match host_override with
        | Some h -> h
        | None -> Option.value ~default:cap0.cap_host new_host
      in
      Bus.record bus
        (E.Replace_started
           { instance;
             old_module = cap0.cap_module;
             old_host = cap0.cap_host;
             new_instance;
             new_module = module_name;
             new_host = host });
      let t_req = Bus.now bus in
      let t0 = ref t_req in
      let span_attrs =
        [ ("instance", instance); ("new_instance", new_instance);
          ("module", module_name); ("src_host", cap0.cap_host);
          ("dst_host", host); ("attempt", string_of_int n) ]
        @ if precopy then [ ("precopy", "on") ] else []
      in
      (* in the pre-copy mode the span (and t0) opens at the freeze —
         the wait for the module to pass a point is service, not
         disruption; without pre-copy it opens here, exactly as before *)
      let sp = ref None in
      if not precopy then sp := open_span bus ~kind:span_kind ~attrs:span_attrs;
      let j =
        Journal.create bus
          ~label:(Printf.sprintf "replace %s -> %s" instance new_instance)
      in
      let settled = ref false in
      (* the deadline event, withdrawn once the script settles *)
      let deadline_ev = ref None in
      let conclude outcome =
        if not !settled then begin
          settled := true;
          Option.iter (Dr_sim.Engine.cancel (Bus.engine bus)) !deadline_ev;
          (match outcome with
          | Error e -> fail_span bus !sp e
          | Ok _ -> ());
          finish outcome
        end
      in
      let disarm_hook () =
        match Bus.machine bus ~instance with
        | Some m -> Machine.set_point_hook m None
        | None -> ()
      in
      let fail e =
        disarm_hook ();
        Journal.rollback j ~reason:e;
        conclude (Error e)
      in
      (* how long the module served on after the request before reaching
         a point *)
      let precopy_wait = ref None in
      let retx0 = ref 0.0 in
      let divulge image =
        (* A crash during the deadline rollback unwinds out of the
           journal append before [conclude] can settle the script, so
           [settled] alone cannot fence this continuation: without the
           controller-down check the armed divulge would later drive
           the forward path of a journal that is mid-rollback (found by
           the model checker: single-replace-crash, wal-consistent). *)
        if !settled then ()
        else if Bus.controller_down bus then
          Bus.record bus (E.Replace_divulge_ignored instance)
        else
          try
          (* the reliable layer's backoff accumulated against the old
             name so far; sampled before the rename hands its channels
             to the clone *)
          let retx_w = Bus.transport_retx_wait bus ~instance -. !retx0 in
          (* Grab the old machine's handle now, before [Journal.kill]
             removes the instance — its virtual-time stamps decompose
             the disruption window after it is gone. *)
          let old_machine = Bus.machine bus ~instance in
          (* Pre-copy accounting: the window opens at the freeze. The
             module served normally right up to the moment its capture
             block ran; shifting that service time out of the window is
             the entire point of pre-copy. The pre-freeze serving time
             is reported on the [precopy] marker as [wait]. *)
          (if precopy && Option.is_none !sp then
             let t_freeze =
               match old_machine with
               | Some om ->
                 Option.value ~default:(Bus.now bus)
                   (Machine.capture_started_at om)
               | None -> Bus.now bus
             in
             t0 := t_freeze;
             sp :=
               match Bus.metrics bus with
               | None -> None
               | Some r ->
                 Some
                   (Metrics.span r ~attrs:span_attrs ~kind:span_kind
                      ~start:t_freeze ()));
          (* Re-snapshot NOW: other reconfigurations may have rebound
             the module's interfaces while it was travelling to its
             reconfiguration point, and the batch must edit the
             *current* configuration (the paper: obj_cap "corresponds
             to the current configuration, which could have been
             changed dynamically"). *)
          match P.obj_cap bus ~instance with
          | Error e -> fail e
          | Ok cap ->
            (* the image is encoded once: the journal logs the container
               the destination decodes (§1.2's abstract image) *)
            let container = Codec.encode_abstract image in
            Journal.note_divulged j ~cap ~image ~container;
            (* end-to-end integrity: the digest taken at capture must
               survive encode/translate/decode, and [deposit_state
               ~expect] re-verifies it at the restore boundary *)
            let d0 = Image.digest image in
            let translated =
              match
                P.translate_image bus ~for_instance:instance ~dst_host:host
                  container
              with
              | Error e ->
                Error (Printf.sprintf "state translation failed: %s" e)
              | Ok image' when not (Int64.equal (Image.digest image') d0) ->
                Bus.quarantine_image bus ~instance
                  ~reason:"digest mismatch after translation"
                  ~byte_size:(Image.byte_size image');
                Error "state image digest mismatch after translation"
              | Ok image' -> Ok image'
            in
            (match translated with
            | Error e -> fail e
            | Ok image' -> (
              let batch = rebind_batch cap ~new_instance in
              (* The old module has complied. Start the new instance
                 first so the batch's queue-copy commands have a live
                 destination, then apply the rebinding commands all at
                 once, deposit the state, and remove the old instance.
                 All of this happens at one instant of virtual time —
                 no quantum runs in between. *)
              match
                Journal.spawn j ~instance:new_instance ~module_name ~host
                  ?spec:cap.cap_spec ~status:"clone" ()
              with
              | Error e -> fail e
              | Ok () ->
                Journal.rebind j batch;
                (* hand the old name's reliable channels (sequence
                   state and all) to the clone: a graceful replace
                   keeps the epoch, so in-flight frames still count *)
                Journal.rename_transport j ~old_instance:instance
                  ~new_instance ~fence:false;
                Bus.deposit_state bus ~instance:new_instance ~expect:d0 image';
                (match old_machine with
                | Some om ->
                  divulge_children bus !sp ~t0:!t0 ~old_machine:om
                    ~restored_instance:new_instance ~image_in:image
                    ~image_out:image'
                    ?precopy_wait:!precopy_wait ~retx_wait:retx_w ()
                | None -> ());
                Journal.kill j ~instance ~module_name:cap.cap_module
                  ~host:cap.cap_host ?spec:cap.cap_spec ();
                Journal.commit j;
                Bus.record bus (E.Replace_completed { instance; new_instance });
                conclude (Ok new_instance)))
          with Bus.Controller_crash ->
            (* the callback runs inside the target's own quantum; a
               crash armed on one of the divulge's journal appends must
               kill the script, not the bystander machine *)
            ()
      in
      let engage () =
        t0 := Bus.now bus;
        Journal.arm_divulge j ~instance divulge;
        retx0 := Bus.transport_retx_wait bus ~instance;
        Bus.signal_reconfig bus ~instance
      in
      (if not precopy then engage ()
       else
         match Bus.machine bus ~instance with
         | None ->
           (* no machine to park a hook on (externally backed
              process): plain freeze path *)
           engage ()
         | Some m ->
           Bus.record bus (E.Precopy_armed instance);
           Machine.set_point_hook m
             (Some
                (fun () ->
                  if (not !settled) && not (Bus.controller_down bus) then
                    (* the hook runs inside the target's own quantum; a
                       controller crash armed on the journal record must
                       kill the script, not the bystander machine *)
                    try
                      precopy_wait := Some (Bus.now bus -. t_req);
                      engage ()
                    with Bus.Controller_crash -> ())));
      match deadline with
      | None -> ()
      | Some window ->
        (* the signal→divulge window of the paper's §4 placement hazard:
           a module that never reaches a reconfiguration point (or
           crashed on the way) triggers rollback instead of spinning the
           event budget; under pre-copy it also bounds the wait for the
           first point *)
        let ev =
          Dr_sim.Engine.schedule_event
            ~label:
              (Dr_sim.Engine.label
                 ~info:(Printf.sprintf "replace %s: deadline" instance)
                 "ctl")
            (Bus.engine bus) ~delay:window (fun () ->
              if (not !settled) && not (Bus.controller_down bus) then begin
                Bus.record bus (E.Replace_deadline { instance; window });
                disarm_hook ();
                Journal.rollback j ~reason:"deadline expired";
                conclude
                  (Error
                     (Printf.sprintf
                        "%s did not divulge within the %.1f deadline"
                        instance window))
              end)
        in
        (* an image the target divulged earlier settles the script while
           [engage] arms the divulge, before this point *)
        if !settled then Dr_sim.Engine.cancel (Bus.engine bus) ev
        else deadline_ev := Some ev
  in
  attempt 1 ~host_override:None

let migrate bus ?precopy ~instance ~new_instance ~new_host ~on_done () =
  replace bus ~span_kind:"migrate" ?precopy ~instance ~new_instance ~new_host
    ~on_done ()

let replicate bus ~instance ~replica_instance ?replica_host ~on_done () =
  match P.obj_cap bus ~instance with
  | Error e -> on_done (Error e)
  | Ok cap0 ->
    let replica_host = Option.value ~default:cap0.cap_host replica_host in
    Bus.record bus
      (E.Replicate_started
         { instance; replica = replica_instance; host = replica_host });
    let t0 = Bus.now bus in
    let sp =
      open_span bus ~kind:"replicate"
        ~attrs:
          [ ("instance", instance); ("replica_instance", replica_instance);
            ("module", cap0.cap_module); ("src_host", cap0.cap_host);
            ("dst_host", replica_host) ]
    in
    let j =
      Journal.create bus
        ~label:(Printf.sprintf "replicate %s -> %s" instance replica_instance)
    in
    Journal.arm_divulge j ~instance (fun image ->
        let old_machine = Bus.machine bus ~instance in
        (* re-snapshot: bindings may have changed while waiting *)
        match P.obj_cap bus ~instance with
        | Error e ->
          Journal.rollback j ~reason:e;
          fail_span bus sp e;
          on_done (Error e)
        | Ok cap -> (
          let container = Codec.encode_abstract image in
          Journal.note_divulged j ~cap ~image ~container;
          (* Phase 1 — restart the original in place: it halted after
             divulging; bring it back under its own name with the same
             image, preserving any messages still queued at its
             interfaces. Committed on its own: if the replica later
             fails, the restored original *is* the consistent rollback
             state and must not be undone. *)
          let parked =
            List.map
              (fun iface ->
                (iface, Bus.take_queue bus (cap.cap_instance, iface)))
              cap.cap_ifaces
          in
          Journal.kill j ~instance ~module_name:cap.cap_module
            ~host:cap.cap_host ?spec:cap.cap_spec ();
          match
            Journal.spawn j ~instance ~module_name:cap.cap_module
              ~host:cap.cap_host ?spec:cap.cap_spec ~status:"clone" ()
          with
          | Error e ->
            Journal.rollback j ~reason:e;
            fail_span bus sp e;
            on_done (Error e)
          | Ok () -> (
            Bus.deposit_state bus ~instance image;
            (* phase 1 restored the original in place: decompose the
               window against it now; the replica adds its own lazy
               restore child below *)
            (match old_machine with
            | Some om ->
              divulge_children bus sp ~t0 ~old_machine:om
                ~restored_instance:instance ~image_in:image
                ~image_out:image ()
            | None -> ());
            List.iter
              (fun (iface, values) ->
                List.iter
                  (fun v -> Bus.inject bus ~dst:(instance, iface) v)
                  values)
              parked;
            Journal.commit j;
            (* Phase 2 — start the replica under a fresh journal: on
               failure only the replica-side edits are undone and the
               restored original keeps serving. *)
            let j2 =
              Journal.create bus
                ~label:
                  (Printf.sprintf "replicate %s -> %s (replica)" instance
                     replica_instance)
            in
            let fail e =
              Journal.rollback j2 ~reason:e;
              fail_span bus sp e;
              on_done (Error e)
            in
            match
              P.translate_image bus ~for_instance:instance
                ~dst_host:replica_host container
            with
            | Error e -> fail e
            | Ok image' -> (
              match
                Journal.spawn j2 ~instance:replica_instance
                  ~module_name:cap.cap_module ~host:replica_host
                  ?spec:cap.cap_spec ~status:"clone" ()
              with
              | Error e -> fail e
              | Ok () ->
                Bus.deposit_state bus ~instance:replica_instance image';
                (match sp, Bus.machine bus ~instance:replica_instance with
                | Some s, Some rm ->
                  let rs =
                    Metrics.child s ~kind:"replica_restore"
                      ~attrs:[ ("instance", replica_instance) ]
                      ~start:(Bus.now bus) ()
                  in
                  Metrics.finish_with rs (fun () -> Machine.restore_done_at rm)
                | _ -> ());
                (* duplicate the original's bindings for the replica *)
                List.iter
                  (fun ((src : Bus.endpoint), dst) ->
                    Journal.add_route j2
                      ~src:(replica_instance, snd src) ~dst)
                  cap.cap_out_routes;
                List.iter
                  (fun (src, (dst : Bus.endpoint)) ->
                    Journal.add_route j2 ~src
                      ~dst:(replica_instance, snd dst))
                  cap.cap_in_routes;
                Journal.commit j2;
                Bus.record bus
                  (E.Replicate_completed
                     { instance; replica = replica_instance });
                on_done (Ok replica_instance)))));
    Bus.signal_reconfig bus ~instance

let replace_stateless bus ~instance ~new_instance ?new_module ?new_host
    ?(fence = false) () =
  match P.obj_cap bus ~instance with
  | Error e -> Error e
  | Ok cap -> (
    let module_name = Option.value ~default:cap.cap_module new_module in
    let host = Option.value ~default:cap.cap_host new_host in
    Bus.record bus
      (E.Stateless_started { instance; new_instance; module_name; host });
    let sp =
      open_span bus ~kind:"replace_stateless"
        ~attrs:
          [ ("instance", instance); ("new_instance", new_instance);
            ("module", module_name); ("dst_host", host) ]
    in
    let j =
      Journal.create bus
        ~label:
          (Printf.sprintf "replace-stateless %s -> %s" instance new_instance)
    in
    let batch = rebind_batch cap ~new_instance in
    match
      Journal.spawn j ~instance:new_instance ~module_name ~host
        ?spec:cap.cap_spec ~status:"normal" ()
    with
    | Error e ->
      Journal.rollback j ~reason:e;
      fail_span bus sp e;
      Error e
    | Ok () ->
      Journal.rebind j batch;
      (* [fence:true] is the supervisor's case — the old generation is
         only *suspected* dead, so frames it already sent must arrive
         inert; its unacked frames are retransmitted under the new
         epoch and name instead *)
      Journal.rename_transport j ~old_instance:instance ~new_instance ~fence;
      Journal.kill j ~instance ~module_name:cap.cap_module ~host:cap.cap_host
        ?spec:cap.cap_spec ();
      Journal.commit j;
      Bus.record bus (E.Stateless_completed { instance; new_instance });
      (* synchronous and stateless: the whole window is one instant *)
      (match sp with
      | Some s ->
        Metrics.set_attr s "outcome" "ok";
        Metrics.finish s ~at:(Bus.now bus)
      | None -> ());
      Ok new_instance)

let add_module bus ~instance ~module_name ~host ?spec ~binds () =
  let j =
    Journal.create bus ~label:(Printf.sprintf "add-module %s" instance)
  in
  match Journal.spawn j ~instance ~module_name ~host ?spec () with
  | Error e ->
    Journal.rollback j ~reason:e;
    Error e
  | Ok () ->
    List.iter (fun (src, dst) -> Journal.add_route j ~src ~dst) binds;
    Journal.commit j;
    Ok ()

let remove_module bus ~instance =
  match P.obj_cap bus ~instance with
  | Error _ ->
    (* no such instance: still sweep any dangling routes, as before *)
    List.iter
      (fun ((src : Bus.endpoint), (dst : Bus.endpoint)) ->
        if String.equal (fst src) instance || String.equal (fst dst) instance
        then Bus.del_route bus ~src ~dst)
      (Bus.all_routes bus);
    Bus.kill bus ~instance
  | Ok cap ->
    let j =
      Journal.create bus ~label:(Printf.sprintf "remove-module %s" instance)
    in
    List.iter
      (fun ((src : Bus.endpoint), (dst : Bus.endpoint)) ->
        if String.equal (fst src) instance || String.equal (fst dst) instance
        then Journal.del_route j ~src ~dst)
      (Bus.all_routes bus);
    Journal.kill j ~instance ~module_name:cap.cap_module ~host:cap.cap_host
      ?spec:cap.cap_spec ();
    Journal.commit j

let run_sync bus ?(max_events = 1_000_000) ?deadline ?watch script =
  let result = ref None in
  (* the script's synchronous prefix (journal begin, arm, signal) can
     die on an armed controller crash before any engine event fires;
     treat it exactly like a crash inside an event — the fleet keeps
     running, the script just never completes *)
  (try script ~on_done:(fun r -> result := Some r)
   with Bus.Controller_crash -> ());
  (* a watched instance that crashes, halts or disappears before the
     script completes can never comply with the reconfiguration signal;
     fail fast instead of spinning the event budget on the other
     processes' events *)
  let module Machine = Dr_interp.Machine in
  let doomed () =
    match watch with
    | None -> false
    | Some instance -> (
      match Bus.process_status bus ~instance with
      | Some (Machine.Crashed _) | Some Machine.Halted | None -> true
      | Some _ -> false)
  in
  let started = Bus.now bus in
  let expired () =
    match deadline with
    | None -> false
    | Some d -> Bus.now bus -. started > d
  in
  Bus.run_while bus ~max_events (fun () ->
      Option.is_none !result
      && (not (doomed ()))
      && (not (expired ()))
      && not (Bus.controller_down bus));
  match !result with
  | Some r -> r
  | None -> (
    match watch with
    | _ when Bus.controller_down bus ->
      Error "the controller crashed before the reconfiguration completed"
    | Some instance when doomed () ->
      Error
        (match Bus.process_status bus ~instance with
        | Some (Machine.Crashed message) ->
          Printf.sprintf "%s crashed before the reconfiguration completed: %s"
            instance message
        | Some Machine.Halted ->
          Printf.sprintf "%s halted before the reconfiguration completed"
            instance
        | _ ->
          Printf.sprintf "%s was removed before the reconfiguration completed"
            instance)
    | _ when expired () ->
      Error
        (Printf.sprintf
           "reconfiguration did not complete within the %.1f deadline"
           (Option.get deadline))
    | _ -> Error "reconfiguration script did not complete")
