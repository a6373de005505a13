(* Autonomic rolling replacement: drain, replace, canary, roll back.

   The controller is synchronous — it drives the bus itself through its
   drain / canary / backoff windows — but everything else stays live:
   traffic generators, detectors and supervisors are scheduled on the
   same engine and keep running while the wave advances. Time only
   moves through events, so every window plants a no-op wake event at
   its horizon; an otherwise idle bus still makes progress.

   Wave durability rides the same WAL as the per-replica scripts, as a
   second, coarser grammar (Wave_begin / Wave_replica_done /
   Wave_commit / Wave_abort). The wave holds the control log's
   checkpoint gate (Bus.ctl_script_opened) for its whole duration so
   the undo images its per-replica scripts journalled cannot be
   garbage-collected while a later canary failure might still need the
   roster they describe. *)

module Bus = Dr_bus.Bus
module E = Dr_sim.Trace_event
module Engine = Dr_sim.Engine
module Metrics = Dr_obs.Metrics
module Wal = Dr_wal.Wal
module Spec = Dr_mil.Spec

type slo = {
  slo_p99 : float option;
  slo_error_rate : float;
  slo_max_shed : int;
}

type config = {
  rc_target : string;
  rc_drain_timeout : float;
  rc_canary_window : float;
  rc_canary_min_samples : int;
  rc_retries : int;
  rc_backoff : float;
  rc_precopy : bool;
  rc_replace_deadline : float;
  rc_slo : slo;
}

let default_config ~target =
  { rc_target = target;
    rc_drain_timeout = 10.0;
    rc_canary_window = 15.0;
    rc_canary_min_samples = 5;
    rc_retries = 3;
    rc_backoff = 2.0;
    rc_precopy = false;
    rc_replace_deadline = 30.0;
    rc_slo =
      { slo_p99 = Some 16.0; slo_error_rate = 0.01; slo_max_shed = 0 } }

let latency_metric = "rolling.latency"
let answered_metric = "rolling.answered"
let error_metric = "rolling.errors"
let shed_metric = "rolling.shed"

type outcome = Upgraded of string | Rolled_back of string | Skipped

type replica_report = {
  rr_slot : string;
  rr_from : string;
  rr_attempts : int;
  rr_rollbacks : int;
  rr_outcome : outcome;
}

type report = {
  rp_wid : int;
  rp_target : string;
  rp_committed : bool;
  rp_reason : string option;
  rp_replicas : replica_report list;
  rp_unwound : int;
}

type t = {
  bus : Bus.t;
  cfg : config;
  wid : int;
  metrics : Metrics.t;
  slots : string array;  (* wave order *)
  members : (string, string) Hashtbl.t;  (* slot -> current instance *)
  origins : (string, string) Hashtbl.t;  (* slot -> module at wave start *)
  supervisor : Supervisor.t option;
  on_retarget : (slot:string -> instance:string -> unit) option;
  mutable gen : int;  (* generation-name counter, wave-unique *)
}

let ensure_metrics bus =
  match Bus.metrics bus with
  | Some m -> m
  | None ->
    let m = Metrics.create () in
    Bus.set_metrics bus m;
    m

(* -------------------------------------------------------- wave logging *)

let log_wave t rec_ =
  if not (Bus.controller_down t.bus) then
    match Bus.wal t.bus with
    | None -> ()
    | Some wal ->
      ignore (Persist.append wal rec_ : int);
      (* a ctlcrash@N fault can land on a wave record just like on a
         script record; ctl_down is set before the raise *)
      (try Bus.ctl_tick t.bus with Bus.Controller_crash -> ())

(* ----------------------------------------------------------- plumbing *)

(* Advance virtual time to [until] even if nothing else is scheduled. *)
let drive t ~until =
  let eng = Bus.engine t.bus in
  if Engine.now eng < until then begin
    Engine.schedule_at eng ~time:until (fun () -> ());
    Bus.run ~until t.bus
  end

let current_members t =
  Array.to_list (Array.map (fun s -> Hashtbl.find t.members s) t.slots)

let set_member t ~slot ~instance =
  Hashtbl.replace t.members slot instance;
  Bus.set_drain_group t.bus ~members:(current_members t);
  (match t.supervisor with
  | Some sup -> Supervisor.adopt sup ~base:slot ~instance
  | None -> ());
  match t.on_retarget with
  | Some f -> f ~slot ~instance
  | None -> ()

(* A supervisor may have restarted the slot's generation behind our
   back (e.g. the old generation crashed mid-drain and came back
   fenced under a new name). Re-resolve, and carry the drain mark over
   so the wave keeps exactly one replace per slot. *)
let refresh t ~slot =
  let cur = Hashtbl.find t.members slot in
  match t.supervisor with
  | None -> cur
  | Some sup -> (
    match Supervisor.current sup ~base:slot with
    | None -> cur
    | Some inst when inst = cur -> cur
    | Some inst ->
      Bus.record t.bus
        (E.Slot_moved { slot; from_instance = cur; to_instance = inst });
      if Bus.is_draining t.bus ~instance:cur then begin
        Bus.clear_draining t.bus ~instance:cur;
        Bus.mark_draining t.bus ~instance:inst
      end;
      set_member t ~slot ~instance:inst;
      inst)

let inbound_queues_empty t instance =
  match Bus.instance_spec t.bus ~instance with
  | None -> true
  | Some spec ->
    List.for_all
      (fun (i : Spec.iface) ->
        (not (Spec.can_receive i.Spec.role))
        || Bus.peek_queue t.bus (instance, i.Spec.if_name) = [])
      spec.Spec.ifaces

let gen_name t slot =
  t.gen <- t.gen + 1;
  Printf.sprintf "%s@%d.%d" slot t.wid t.gen

(* ------------------------------------------------------------- phases *)

(* Stop admitting and serve the queues out, bounded. Leftovers are
   fine — the replace moves pending queues to the successor. Returns
   the (possibly supervisor-renamed) instance, still marked draining. *)
let drain t ~slot =
  let inst = refresh t ~slot in
  Bus.mark_draining t.bus ~instance:inst;
  let deadline = Bus.now t.bus +. t.cfg.rc_drain_timeout in
  (* Always let one settle chunk pass before judging quiescence: a
     message already in transit is not in the queue yet. *)
  drive t ~until:(Float.min deadline (Bus.now t.bus +. 0.5));
  let rec loop () =
    let inst = refresh t ~slot in
    if inbound_queues_empty t inst || Bus.now t.bus >= deadline -. 1e-9 then
      inst
    else begin
      drive t ~until:(Float.min deadline (Bus.now t.bus +. 0.5));
      loop ()
    end
  in
  ignore inst;
  let inst = loop () in
  if not (inbound_queues_empty t inst) then
    Bus.record t.bus (E.Slot_drain_timeout { slot; instance = inst });
  inst

type snap = {
  sn_buckets : (int * int) list;
  sn_answered : int;
  sn_errors : int;
  sn_shed : int;
}

let snap t ~slot =
  let labels = [ ("slot", slot) ] in
  { sn_buckets = Metrics.histogram_buckets t.metrics ~labels latency_metric;
    sn_answered = Metrics.counter_value t.metrics ~labels answered_metric;
    sn_errors = Metrics.counter_value t.metrics ~labels error_metric;
    sn_shed = Metrics.counter_value t.metrics ~labels shed_metric }

let delta_buckets ~before ~after =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (e, n) -> Hashtbl.replace tbl e n) after;
  List.iter
    (fun (e, n) ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt tbl e) in
      Hashtbl.replace tbl e (cur - n))
    before;
  Hashtbl.fold (fun e n acc -> if n > 0 then (e, n) :: acc else acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let judge t ~before ~after =
  let answered = after.sn_answered - before.sn_answered in
  let errors = after.sn_errors - before.sn_errors in
  let shed = after.sn_shed - before.sn_shed in
  if answered = 0 then Error "no traffic reached the canary"
  else
    let rate = float_of_int errors /. float_of_int answered in
    if rate > t.cfg.rc_slo.slo_error_rate +. 1e-9 then
      Error
        (Printf.sprintf "error rate %.3f over ceiling %.3f (%d of %d)" rate
           t.cfg.rc_slo.slo_error_rate errors answered)
    else if shed > t.cfg.rc_slo.slo_max_shed then
      Error
        (Printf.sprintf "shed %d request(s), ceiling %d" shed
           t.cfg.rc_slo.slo_max_shed)
    else
      let p99 =
        Metrics.bucket_quantile ~q:0.99
          (delta_buckets ~before:before.sn_buckets ~after:after.sn_buckets)
      in
      match (t.cfg.rc_slo.slo_p99, p99) with
      | Some ceiling, Some p when p > ceiling +. 1e-9 ->
        Error (Printf.sprintf "p99 latency %g over ceiling %g" p ceiling)
      | _ -> Ok answered

(* Hold the new generation under live traffic and judge the SLO gates
   over the window's metric deltas. The window extends (up to 3x) when
   traffic is too thin to reach the sample floor. *)
let canary t ~slot =
  let before = snap t ~slot in
  let base = t.cfg.rc_canary_window in
  let rec hold extension =
    drive t ~until:(Bus.now t.bus +. base);
    if Bus.controller_down t.bus then Error "controller crashed"
    else
      let after = snap t ~slot in
      if
        after.sn_answered - before.sn_answered < t.cfg.rc_canary_min_samples
        && extension < 3
      then hold (extension + 1)
      else judge t ~before ~after
  in
  hold 1

let replace_to t ~slot ~instance ~target =
  let new_instance = gen_name t slot in
  let res =
    Script.run_sync t.bus
      ~deadline:(t.cfg.rc_replace_deadline *. 4.0)
      (fun ~on_done ->
        Script.replace t.bus ~span_kind:"rolling" ~precopy:t.cfg.rc_precopy
          ~instance ~new_instance ~new_module:target
          ~deadline:t.cfg.rc_replace_deadline ~retry:Script.no_retry ~on_done
          ())
  in
  (match res with Ok inst -> set_member t ~slot ~instance:inst | Error _ -> ());
  res

(* A crashed member is the supervisor's to restart, not ours to
   replace: racing the stateless restart script against the wave's
   replace could stand up two successors for one slot. Wait (bounded)
   for the fenced restart, then upgrade that generation instead. *)
let await_restart t ~slot ~inst =
  match t.supervisor with
  | None -> inst
  | Some _ ->
    let crashed i =
      match Bus.process_status t.bus ~instance:i with
      | Some (Dr_interp.Machine.Crashed _) -> true
      | _ -> false
    in
    if not (crashed inst) then inst
    else begin
      Bus.record t.bus (E.Slot_crash_wait { slot; instance = inst });
      let deadline = Bus.now t.bus +. t.cfg.rc_replace_deadline in
      let rec wait i =
        if (not (crashed i)) || Bus.now t.bus >= deadline -. 1e-9 then i
        else begin
          drive t ~until:(Float.min deadline (Bus.now t.bus +. 0.5));
          wait (refresh t ~slot)
        end
      in
      wait inst
    end

(* ------------------------------------------------------------- a slot *)

type slot_result =
  | Slot_upgraded of replica_report
  | Slot_failed of replica_report
  | Slot_ctl_down

let upgrade_slot t ~slot =
  let from = Hashtbl.find t.members slot in
  let origin = Hashtbl.find t.origins slot in
  let rollbacks = ref 0 in
  let rec attempt a =
    if Bus.controller_down t.bus then Slot_ctl_down
    else begin
      Bus.record t.bus
        (E.Slot_attempt { slot; attempt = a; attempts = t.cfg.rc_retries });
      let inst = drain t ~slot in
      let inst = await_restart t ~slot ~inst in
      (* lift the mark before the script: journalled undo (queue moves,
         re-deposits) must reach the instance itself, not a sibling *)
      Bus.clear_draining t.bus ~instance:inst;
      let fail reason =
        if a < t.cfg.rc_retries then begin
          let backoff =
            t.cfg.rc_backoff *. Float.pow 2.0 (float_of_int (a - 1))
          in
          Bus.record t.bus
            (E.Slot_attempt_failed { slot; attempt = a; reason; backoff });
          drive t ~until:(Bus.now t.bus +. backoff);
          attempt (a + 1)
        end
        else begin
          Bus.record t.bus (E.Slot_exhausted { slot; reason });
          Slot_failed
            { rr_slot = slot; rr_from = from; rr_attempts = a;
              rr_rollbacks = !rollbacks; rr_outcome = Rolled_back reason }
        end
      in
      match replace_to t ~slot ~instance:inst ~target:t.cfg.rc_target with
      | exception Bus.Controller_crash -> Slot_ctl_down
      | Error e ->
        if Bus.controller_down t.bus then Slot_ctl_down else fail e
      | Ok canary_inst -> (
        Bus.record t.bus
          (E.Canary_holding
             { slot; canary = canary_inst; window = t.cfg.rc_canary_window });
        match canary t ~slot with
        | Error reason when Bus.controller_down t.bus ->
          ignore reason;
          Slot_ctl_down
        | Ok samples ->
          Metrics.incr t.metrics ~labels:[ ("slot", slot) ] "rolling.upgrades";
          Bus.record t.bus
            (E.Canary_passed { slot; samples; canary = canary_inst });
          log_wave t
            (Persist.Wave_replica_done
               { wid = t.wid; wr_slot = slot; wr_instance = canary_inst });
          if Bus.controller_down t.bus then Slot_ctl_down
          else
            Slot_upgraded
              { rr_slot = slot; rr_from = from; rr_attempts = a;
                rr_rollbacks = !rollbacks;
                rr_outcome = Upgraded canary_inst }
        | Error reason -> (
          Bus.record t.bus (E.Canary_failed { slot; reason; origin });
          incr rollbacks;
          Metrics.incr t.metrics ~labels:[ ("slot", slot) ] "rolling.rollbacks";
          (* roll back = replace the canary with the original module;
             its state carries over, so writes served during the canary
             survive the rollback *)
          let inst = drain t ~slot in
          let inst = await_restart t ~slot ~inst in
          Bus.clear_draining t.bus ~instance:inst;
          match replace_to t ~slot ~instance:inst ~target:origin with
          | exception Bus.Controller_crash -> Slot_ctl_down
          | Ok _ -> fail reason
          | Error e ->
            if Bus.controller_down t.bus then Slot_ctl_down
            else fail (Printf.sprintf "%s; rollback also failed: %s" reason e)))
    end
  in
  attempt 1

(* Abort path: put every already-upgraded slot back on its original
   module, newest first. Best effort — a slot whose unwind fails is
   reported but does not stop the others. *)
let unwind t ~upgraded =
  List.fold_left
    (fun n (slot, _) ->
      let inst = drain t ~slot in
      Bus.clear_draining t.bus ~instance:inst;
      let origin = Hashtbl.find t.origins slot in
      match replace_to t ~slot ~instance:inst ~target:origin with
      | Ok inst' ->
        Bus.record t.bus (E.Slot_unwound { slot; origin; instance = inst' });
        n + 1
      | Error e ->
        Bus.record t.bus (E.Slot_unwind_failed { slot; error = e });
        n
      | exception Bus.Controller_crash -> n)
    0 (List.rev upgraded)

(* --------------------------------------------------------------- wave *)

let validate cfg ~group =
  if group = [] then Error "empty replica group"
  else if cfg.rc_retries < 1 then Error "retries must be at least 1"
  else if not (cfg.rc_backoff >= 0.0 && Float.is_finite cfg.rc_backoff) then
    Error "backoff must be non-negative and finite"
  else if not (cfg.rc_drain_timeout > 0.0 && Float.is_finite cfg.rc_drain_timeout)
  then Error "drain timeout must be positive and finite"
  else if not (cfg.rc_canary_window > 0.0 && Float.is_finite cfg.rc_canary_window)
  then Error "canary window must be positive and finite"
  else Ok ()

let run bus cfg ~group ?supervisor ?on_retarget () =
  match validate cfg ~group with
  | Error _ as e -> e |> Result.map (fun _ -> assert false)
  | Ok () ->
    if Bus.controller_down bus then Error "controller is down"
    else if not (List.mem cfg.rc_target (Bus.registered_modules bus)) then
      Error
        (Printf.sprintf "target module %s is not registered with the bus"
           cfg.rc_target)
    else begin
      let missing =
        List.filter
          (fun (_, inst) ->
            Option.is_none (Bus.instance_module bus ~instance:inst))
          group
      in
      match missing with
      | (slot, inst) :: _ ->
        Error (Printf.sprintf "slot %s: unknown instance %s" slot inst)
      | [] ->
        let wid = Bus.next_script_id bus in
        let t =
          { bus; cfg; wid;
            metrics = ensure_metrics bus;
            slots = Array.of_list (List.map fst group);
            members = Hashtbl.create 8;
            origins = Hashtbl.create 8;
            supervisor;
            on_retarget;
            gen = 0 }
        in
        List.iter
          (fun (slot, inst) ->
            Hashtbl.replace t.members slot inst;
            Hashtbl.replace t.origins slot
              (Option.get (Bus.instance_module bus ~instance:inst)))
          group;
        Bus.set_drain_group bus ~members:(current_members t);
        Bus.record t.bus
          (E.Wave_started
             { wid; slots = Array.length t.slots; target = cfg.rc_target });
        log_wave t
          (Persist.Wave_begin { wid; w_group = group; w_target = cfg.rc_target });
        Bus.ctl_script_opened bus;
        let finish result =
          Bus.ctl_script_closed bus;
          List.iter
            (fun inst -> Bus.clear_draining bus ~instance:inst)
            (Bus.draining_instances bus);
          result
        in
        if Bus.controller_down bus then
          finish (Error "controller crashed mid-wave (run Rolling.recover)")
        else begin
          let upgraded = ref [] in
          let reports = ref [] in
          let abort = ref None in
          let n = Array.length t.slots in
          let i = ref 0 in
          while !i < n && !abort = None do
            let slot = t.slots.(!i) in
            (match upgrade_slot t ~slot with
            | Slot_upgraded r ->
              upgraded := (slot, r) :: !upgraded;
              reports := r :: !reports
            | Slot_failed r ->
              reports := r :: !reports;
              abort :=
                Some
                  (Printf.sprintf "slot %s exhausted %d attempt(s)" slot
                     t.cfg.rc_retries)
            | Slot_ctl_down -> abort := Some "ctl-down");
            incr i
          done;
          if Bus.controller_down bus then
            finish (Error "controller crashed mid-wave (run Rolling.recover)")
          else
            match !abort with
            | None ->
              log_wave t (Persist.Wave_commit { wid });
              Bus.record t.bus (E.Wave_committed wid);
              finish
                (Ok
                   { rp_wid = wid; rp_target = cfg.rc_target;
                     rp_committed = true; rp_reason = None;
                     rp_replicas = List.rev !reports; rp_unwound = 0 })
            | Some reason ->
              log_wave t (Persist.Wave_abort { wid; w_reason = reason });
              Bus.record t.bus (E.Wave_aborting { wid; reason });
              let unwound = unwind t ~upgraded:!upgraded in
              if Bus.controller_down bus then
                finish
                  (Error "controller crashed mid-wave (run Rolling.recover)")
              else begin
                (* slots never attempted *)
                let skipped =
                  Array.to_list
                    (Array.sub t.slots !i (Array.length t.slots - !i))
                  |> List.map (fun slot ->
                         { rr_slot = slot;
                           rr_from = Hashtbl.find t.members slot;
                           rr_attempts = 0; rr_rollbacks = 0;
                           rr_outcome = Skipped })
                in
                Bus.record t.bus (E.Wave_aborted { wid; unwound });
                finish
                  (Ok
                     { rp_wid = wid; rp_target = cfg.rc_target;
                       rp_committed = false; rp_reason = Some reason;
                       rp_replicas = List.rev !reports @ skipped;
                       rp_unwound = unwound })
              end
        end
    end

(* ----------------------------------------------------------- recovery *)

let recover bus =
  match Bus.wal bus with
  | None -> Error "no control log attached to this bus"
  | Some wal -> (
    (* scan the wave records BEFORE replay: replay ends by
       checkpointing the log, which garbage-collects them *)
    match Recovery.waves wal with
    | Error _ as e -> e |> Result.map (fun _ -> assert false)
    | Ok waves -> (
      match Recovery.replay bus with
      | Error _ as e -> e |> Result.map (fun _ -> assert false)
      | Ok report ->
        (* drain marks are controller memory, not fleet state: a dead
           controller must not keep shedding a healthy member *)
        List.iter
          (fun inst -> Bus.clear_draining bus ~instance:inst)
          (Bus.draining_instances bus);
        (* wave ids share the script id space; keep it monotonic *)
        List.iter
          (fun (w : Recovery.wave) -> Bus.note_script_id bus w.wv_wid)
          waves;
        Ok (report, waves)))

let pp_report ppf r =
  Format.fprintf ppf "wave #%d -> %s: %s" r.rp_wid r.rp_target
    (if r.rp_committed then "committed"
     else
       Printf.sprintf "aborted (%s), %d unwound"
         (Option.value ~default:"?" r.rp_reason)
         r.rp_unwound);
  List.iter
    (fun rr ->
      Format.fprintf ppf "@\n  %s: %s" rr.rr_slot
        (match rr.rr_outcome with
        | Upgraded inst ->
          Printf.sprintf "upgraded to %s (%d attempt(s), %d rollback(s))"
            inst rr.rr_attempts rr.rr_rollbacks
        | Rolled_back reason ->
          Printf.sprintf "rolled back after %d attempt(s): %s" rr.rr_attempts
            reason
        | Skipped -> "skipped"))
    r.rp_replicas
