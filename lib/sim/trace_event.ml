type endpoint = string * string

type undo_step = { us_label : string; us_index : int; us_total : int }

type t =
  (* bus: controller and fault plane *)
  | Ctl_crash_armed of int
  | Ctl_crashed of int
  | Ctl_restarted
  | Corruption_armed of string
  | Corruption_injected of string
  | Quarantined of { instance : string; bytes : int; reason : string }
  | Crash_ignored of string
  | Crashed of { instance : string; reason : string }
  | Host_crash_ignored of string
  | Host_crashed of string
  | Host_crash_lost of { instance : string; count : int }
  | Host_recovered of string
  | Host_recovery_ignored of string
  | Halted of string
  (* bus: bindings, draining, delivery *)
  | Bind_added of { src : endpoint; dst : endpoint }
  | Bind_deleted of { src : endpoint; dst : endpoint }
  | Drain_started of string
  | Drain_ended of string
  | Drain_redirect of { instance : string; iface : string; target : string }
  | Dead_destination of endpoint
  | Host_down_delivery of { dst : endpoint; host : string }
  | Queue_copied of { src : endpoint; dst : endpoint; count : int }
  | Queue_removed of { ep : endpoint; count : int }
  | In_flight_lost of endpoint
  | Injected_loss of { src : endpoint; dst : endpoint }
  | Injected_duplicate of { src : endpoint; dst : endpoint }
  | Unbound of endpoint
  | Dead_sender of endpoint
  | Print of { instance : string; line : string }
  (* bus: instances and state *)
  | Divulged of { instance : string; records : int; bytes : int }
  | Started of {
      instance : string;
      module_name : string;
      host : string;
      status : string;
    }
  | Snapshot_cloned of {
      of_instance : string;
      instance : string;
      host : string;
    }
  | Kill_ignored of string
  | Removed of string
  | Removed_pending_divulge of string
  | Removed_undelivered of { instance : string; count : int }
  | Wake_ignored_unknown of string
  | Wake_ignored_stopped of string
  | Signalled of string
  | Divulge_dead_discarded of string
  | Divulge_stopped_discarded of string
  | Divulge_cancel_ignored of string
  | Divulge_cancelled of string
  | Image_dead_discarded of string
  | Image_stopped_discarded of string
  | Deposited of string
  (* reliable channels *)
  | Channel_opened of { src : endpoint; dst : endpoint }
  | Fenced_frame of {
      src : endpoint;
      dst : endpoint;
      epoch : int;
      current : int;
      seq : int;
    }
  | Dup_suppressed of {
      src : endpoint;
      dst : endpoint;
      seq : int;
      expected : int;
    }
  | Retx_limit of { src : endpoint; dst : endpoint; rounds : int }
  | Retransmit of {
      src : endpoint;
      dst : endpoint;
      seq : int;
      epoch : int;
      rto : float;
    }
  | Fast_retransmit of {
      src : endpoint;
      dst : endpoint;
      seq : int;
      epoch : int;
    }
  | Channels_transferred of {
      count : int;
      old_instance : string;
      new_instance : string;
      fenced : bool;
    }
  (* journal rollback *)
  | Undo_in_service of { step : undo_step; instance : string }
  | Undo_restore_failed of {
      step : undo_step;
      instance : string;
      host : string;
      error : string;
    }
  | Undo_restored of { step : undo_step; instance : string }
  | Undo_route_removed of {
      step : undo_step;
      src : endpoint;
      dst : endpoint;
    }
  | Undo_route_restored of {
      step : undo_step;
      src : endpoint;
      dst : endpoint;
    }
  | Undo_queue_returned of { step : undo_step; count : int; ep : endpoint }
  | Undo_queue_refilled of { step : undo_step; ep : endpoint; count : int }
  | Undo_spawn_removed of { step : undo_step; instance : string }
  | Undo_divulge_disarmed of { step : undo_step; instance : string }
  | Undo_transport_returned of {
      step : undo_step;
      from_instance : string;
      to_instance : string;
    }
  | Undo_host_down of { step : undo_step; instance : string; host : string }
  | Rollback_started of { label : string; total : int; reason : string }
  | Rollback_resumed of {
      label : string;
      at : int;
      total : int;
      reason : string;
    }
  (* recovery *)
  | Replay_started of { records : int; scripts : int; unterminated : int }
  | Replay_completed of int
  (* rolling waves *)
  | Slot_moved of {
      slot : string;
      from_instance : string;
      to_instance : string;
    }
  | Slot_drain_timeout of { slot : string; instance : string }
  | Slot_crash_wait of { slot : string; instance : string }
  | Slot_attempt of { slot : string; attempt : int; attempts : int }
  | Slot_attempt_failed of {
      slot : string;
      attempt : int;
      reason : string;
      backoff : float;
    }
  | Slot_exhausted of { slot : string; reason : string }
  | Canary_holding of { slot : string; canary : string; window : float }
  | Canary_passed of { slot : string; samples : int; canary : string }
  | Canary_failed of { slot : string; reason : string; origin : string }
  | Slot_unwound of { slot : string; origin : string; instance : string }
  | Slot_unwind_failed of { slot : string; error : string }
  | Wave_started of { wid : int; slots : int; target : string }
  | Wave_committed of int
  | Wave_aborting of { wid : int; reason : string }
  | Wave_aborted of { wid : int; unwound : int }
  (* scripts *)
  | Replace_retry of {
      instance : string;
      attempt : int;
      error : string;
      next_host : string option;
      backoff : float;
    }
  | Replace_started of {
      instance : string;
      old_module : string;
      old_host : string;
      new_instance : string;
      new_module : string;
      new_host : string;
    }
  | Replace_divulge_ignored of string
  | Replace_completed of { instance : string; new_instance : string }
  | Precopy_armed of string
  | Replace_deadline of { instance : string; window : float }
  | Replicate_started of {
      instance : string;
      replica : string;
      host : string;
    }
  | Replicate_completed of { instance : string; replica : string }
  | Stateless_started of {
      instance : string;
      new_instance : string;
      module_name : string;
      host : string;
    }
  | Stateless_completed of { instance : string; new_instance : string }
  (* failure detector *)
  | Suspect_cleared of string
  | Stale_heartbeat of string
  | Suspected of { instance : string; silence : float; level : int }
  (* supervisor *)
  | Restart_gave_up of { instance : string; restarts : int }
  | Restarted of {
      old_instance : string;
      new_instance : string;
      host : string;
      restart : int;
      max_restarts : int;
    }
  | Restart_failed of { instance : string; error : string }
  | Adopted of { instance : string; base : string }

let category = function
  | Ctl_crash_armed _ | Ctl_crashed _ | Corruption_armed _
  | Corruption_injected _ | Host_crashed _ | Host_recovered _
  | Host_down_delivery _ | Injected_loss _ | Injected_duplicate _ ->
    "fault"
  | Ctl_restarted | Replay_started _ | Replay_completed _ -> "recover"
  | Quarantined _ -> "quarantine"
  | Crash_ignored _ | Host_crash_ignored _ | Host_recovery_ignored _
  | Kill_ignored _ | Wake_ignored_unknown _ | Wake_ignored_stopped _
  | Divulge_dead_discarded _ | Divulge_stopped_discarded _
  | Divulge_cancel_ignored _ | Image_dead_discarded _
  | Image_stopped_discarded _ ->
    "audit"
  | Crashed _ -> "crash"
  | Host_crash_lost _ | Queue_copied _ | Queue_removed _
  | Removed_undelivered _ ->
    "queue"
  | Halted _ -> "halt"
  | Bind_added _ | Bind_deleted _ -> "bind"
  | Drain_started _ | Drain_ended _ | Drain_redirect _ -> "drain"
  | Dead_destination _ | In_flight_lost _ | Unbound _ | Dead_sender _ ->
    "drop"
  | Print _ -> "print"
  | Divulged _ | Removed_pending_divulge _ | Divulge_cancelled _
  | Deposited _ ->
    "state"
  | Started _ | Snapshot_cloned _ | Removed _ -> "lifecycle"
  | Signalled _ -> "signal"
  | Channel_opened _ | Fenced_frame _ | Dup_suppressed _ | Retx_limit _
  | Retransmit _ | Fast_retransmit _ | Channels_transferred _ ->
    "retx"
  | Undo_in_service _ | Undo_restore_failed _ | Undo_restored _
  | Undo_route_removed _ | Undo_route_restored _ | Undo_queue_returned _
  | Undo_queue_refilled _ | Undo_spawn_removed _ | Undo_divulge_disarmed _
  | Undo_transport_returned _ | Undo_host_down _ | Rollback_started _
  | Rollback_resumed _ ->
    "rollback"
  | Slot_moved _ | Slot_drain_timeout _ | Slot_crash_wait _ | Slot_attempt _
  | Slot_attempt_failed _ | Slot_exhausted _ | Canary_holding _
  | Canary_passed _ | Canary_failed _ | Slot_unwound _ | Slot_unwind_failed _
  | Wave_started _ | Wave_committed _ | Wave_aborting _ | Wave_aborted _ ->
    "rolling"
  | Replace_retry _ | Replace_started _ | Replace_divulge_ignored _
  | Replace_completed _ | Precopy_armed _ | Replace_deadline _
  | Replicate_started _ | Replicate_completed _ | Stateless_started _
  | Stateless_completed _ ->
    "script"
  | Suspect_cleared _ | Stale_heartbeat _ | Suspected _ -> "suspect"
  | Restart_gave_up _ | Restarted _ | Restart_failed _ | Adopted _ ->
    "supervisor"

let sprintf = Printf.sprintf

let route (si, sf) (di, df) = sprintf "%s.%s -> %s.%s" si sf di df

let step_prefix s = sprintf "%s [%d/%d]: " s.us_label s.us_index s.us_total

let render = function
  | Ctl_crash_armed after ->
    sprintf "controller crash armed after control-log append %d" after
  | Ctl_crashed n -> sprintf "controller crashed after control-log append %d" n
  | Ctl_restarted -> "controller restarted"
  | Corruption_armed i -> sprintf "image corruption armed for %s" i
  | Corruption_injected i -> sprintf "injected image corruption: %s" i
  | Quarantined { instance; bytes; reason } ->
    sprintf "image from %s quarantined (%d byte(s)): %s" instance bytes reason
  | Crash_ignored i -> sprintf "crash injection ignored: no instance %s" i
  | Crashed { instance; reason } -> sprintf "%s crashed: %s" instance reason
  | Host_crash_ignored h -> sprintf "host crash ignored: %s already down" h
  | Host_crashed h -> sprintf "host %s crashed" h
  | Host_crash_lost { instance; count } ->
    sprintf "%s lost %d queued message(s) in host crash" instance count
  | Host_recovered h -> sprintf "host %s recovered" h
  | Host_recovery_ignored h -> sprintf "host recovery ignored: %s is up" h
  | Halted i -> sprintf "%s halted" i
  | Bind_added { src; dst } -> "add " ^ route src dst
  | Bind_deleted { src; dst } -> "del " ^ route src dst
  | Drain_started i -> sprintf "%s draining: new deliveries shed to siblings" i
  | Drain_ended i -> sprintf "%s admitting again" i
  | Drain_redirect { instance; iface; target } ->
    sprintf "redirect %s.%s -> %s.%s (draining)" instance iface target iface
  | Dead_destination (i, f) -> sprintf "message for dead instance %s.%s" i f
  | Host_down_delivery { dst = i, f; host } ->
    sprintf "delivery to %s.%s failed: host %s is down" i f host
  | Queue_copied { src; dst; count } ->
    sprintf "cq %s (%d message(s))" (route src dst) count
  | Queue_removed { ep = i, f; count } ->
    sprintf "rmq %s.%s (%d message(s))" i f count
  | In_flight_lost (i, f) -> sprintf "in-flight message from %s.%s lost" i f
  | Injected_loss { src; dst } -> "injected loss: " ^ route src dst
  | Injected_duplicate { src; dst } -> "injected duplicate: " ^ route src dst
  | Unbound (i, f) -> sprintf "%s.%s has no binding; message discarded" i f
  | Dead_sender (i, f) ->
    sprintf "%s.%s sent after %s was removed; message discarded" i f i
  | Print { instance; line } -> sprintf "%s: %s" instance line
  | Divulged { instance; records; bytes } ->
    sprintf "%s divulged %d record(s), %d byte(s)" instance records bytes
  | Started { instance; module_name; host; status } ->
    sprintf "%s (%s) started on %s as %s" instance module_name host status
  | Snapshot_cloned { of_instance; instance; host } ->
    sprintf "%s snapshot-cloned as %s on %s" of_instance instance host
  | Kill_ignored i -> sprintf "kill ignored: no instance %s" i
  | Removed i -> sprintf "%s removed" i
  | Removed_pending_divulge i ->
    sprintf "%s removed with a pending divulge callback; cancelled" i
  | Removed_undelivered { instance; count } ->
    sprintf "%s removed with %d undelivered message(s)" instance count
  | Wake_ignored_unknown i -> sprintf "wake ignored: no instance %s" i
  | Wake_ignored_stopped i -> sprintf "wake ignored: %s already stopped" i
  | Signalled i -> sprintf "reconfiguration signal -> %s" i
  | Divulge_dead_discarded i ->
    sprintf "divulge callback for dead instance %s discarded" i
  | Divulge_stopped_discarded i ->
    sprintf "divulge callback for %s discarded: already stopped" i
  | Divulge_cancel_ignored i ->
    sprintf "divulge cancel ignored: no instance %s" i
  | Divulge_cancelled i -> sprintf "divulge callback for %s cancelled" i
  | Image_dead_discarded i ->
    sprintf "state image for dead instance %s discarded" i
  | Image_stopped_discarded i ->
    sprintf "state image for %s discarded: already stopped" i
  | Deposited i -> sprintf "state image deposited into %s" i
  | Channel_opened { src; dst } -> sprintf "channel %s opened" (route src dst)
  | Fenced_frame { src; dst; epoch; current; seq } ->
    sprintf "fenced stale frame on %s: epoch %d (current %d), seq %d"
      (route src dst) epoch current seq
  | Dup_suppressed { src; dst; seq; expected } ->
    sprintf "dup suppressed on %s: seq %d (expected %d)" (route src dst) seq
      expected
  | Retx_limit { src; dst; rounds } ->
    sprintf "retx limit reached on %s: %d round(s), pausing" (route src dst)
      rounds
  | Retransmit { src; dst; seq; epoch; rto } ->
    sprintf "retransmit on %s: seq %d (epoch %d, rto %.2f)" (route src dst) seq
      epoch rto
  | Fast_retransmit { src; dst; seq; epoch } ->
    sprintf "fast retransmit on %s: seq %d (epoch %d)" (route src dst) seq
      epoch
  | Channels_transferred { count; old_instance; new_instance; fenced } ->
    sprintf "%d channel(s) of %s transferred to %s%s" count old_instance
      new_instance
      (if fenced then " (fenced)" else "")
  | Undo_in_service { step; instance } ->
    sprintf "%s%s already back in service" (step_prefix step) instance
  | Undo_restore_failed { step; instance; host; error } ->
    sprintf "%sFAILED to restore instance %s on %s: %s" (step_prefix step)
      instance host error
  | Undo_restored { step; instance } ->
    sprintf "%srestored instance %s" (step_prefix step) instance
  | Undo_route_removed { step; src; dst } ->
    sprintf "%sremoved route %s" (step_prefix step) (route src dst)
  | Undo_route_restored { step; src; dst } ->
    sprintf "%srestored route %s" (step_prefix step) (route src dst)
  | Undo_queue_returned { step; count; ep = i, f } ->
    sprintf "%sreturned %d message(s) to %s.%s" (step_prefix step) count i f
  | Undo_queue_refilled { step; ep = i, f; count } ->
    sprintf "%srefilled %s.%s with %d message(s)" (step_prefix step) i f count
  | Undo_spawn_removed { step; instance } ->
    sprintf "%sremoved half-started instance %s" (step_prefix step) instance
  | Undo_divulge_disarmed { step; instance } ->
    sprintf "%sdisarmed divulge callback for %s" (step_prefix step) instance
  | Undo_transport_returned { step; from_instance; to_instance } ->
    sprintf "%sreturned reliable channels of %s to %s" (step_prefix step)
      from_instance to_instance
  | Undo_host_down { step; instance; host } ->
    sprintf "%scannot restore %s: host %s is down" (step_prefix step) instance
      host
  | Rollback_started { label; total; reason } ->
    sprintf "%s: rolling back %d step(s): %s" label total reason
  | Rollback_resumed { label; at; total; reason } ->
    sprintf "%s: resuming rollback at step %d/%d: %s" label at total reason
  | Replay_started { records; scripts; unterminated } ->
    sprintf "replaying %d control record(s): %d script(s), %d unterminated"
      records scripts unterminated
  | Replay_completed lsn ->
    sprintf "recovery complete: log checkpointed at lsn %d" lsn
  | Slot_moved { slot; from_instance; to_instance } ->
    sprintf "slot %s: supervisor moved %s -> %s mid-wave" slot from_instance
      to_instance
  | Slot_drain_timeout { slot; instance } ->
    sprintf "slot %s: drain timeout on %s, moving leftovers" slot instance
  | Slot_crash_wait { slot; instance } ->
    sprintf "slot %s: %s crashed; waiting for its supervised restart" slot
      instance
  | Slot_attempt { slot; attempt; attempts } ->
    sprintf "slot %s: attempt %d of %d" slot attempt attempts
  | Slot_attempt_failed { slot; attempt; reason; backoff } ->
    sprintf "slot %s: attempt %d failed (%s), backing off %g" slot attempt
      reason backoff
  | Slot_exhausted { slot; reason } ->
    sprintf "slot %s: out of attempts (%s)" slot reason
  | Canary_holding { slot; canary; window } ->
    sprintf "slot %s: canary %s holding for %g" slot canary window
  | Canary_passed { slot; samples; canary } ->
    sprintf "slot %s: canary passed (%d sample(s)), now %s" slot samples canary
  | Canary_failed { slot; reason; origin } ->
    sprintf "slot %s: canary failed (%s), rolling back to %s" slot reason
      origin
  | Slot_unwound { slot; origin; instance } ->
    sprintf "slot %s: unwound to %s (%s)" slot origin instance
  | Slot_unwind_failed { slot; error } ->
    sprintf "slot %s: unwind failed: %s" slot error
  | Wave_started { wid; slots; target } ->
    sprintf "wave #%d: %d slot(s) -> %s" wid slots target
  | Wave_committed wid -> sprintf "wave #%d committed" wid
  | Wave_aborting { wid; reason } -> sprintf "wave #%d aborting: %s" wid reason
  | Wave_aborted { wid; unwound } ->
    sprintf "wave #%d aborted: %d slot(s) unwound" wid unwound
  | Replace_retry { instance; attempt; error; next_host; backoff } ->
    sprintf "replace %s: attempt %d failed (%s); retrying%s in %.1f" instance
      attempt error
      (match next_host with Some h -> " on " ^ h | None -> "")
      backoff
  | Replace_started
      { instance; old_module; old_host; new_instance; new_module; new_host } ->
    sprintf "replace %s: %s on %s -> %s: %s on %s" instance old_module old_host
      new_instance new_module new_host
  | Replace_divulge_ignored i ->
    sprintf "replace %s: divulge ignored: controller is down" i
  | Replace_completed { instance; new_instance } ->
    sprintf "replace %s -> %s complete" instance new_instance
  | Precopy_armed i -> sprintf "replace %s: pre-copy armed at next point" i
  | Replace_deadline { instance; window } ->
    sprintf "replace %s: deadline (%.1f) expired before divulge" instance
      window
  | Replicate_started { instance; replica; host } ->
    sprintf "replicate %s -> %s on %s" instance replica host
  | Replicate_completed { instance; replica } ->
    sprintf "replicate %s -> %s complete" instance replica
  | Stateless_started { instance; new_instance; module_name; host } ->
    sprintf "replace-stateless %s -> %s: %s on %s" instance new_instance
      module_name host
  | Stateless_completed { instance; new_instance } ->
    sprintf "replace-stateless %s -> %s complete" instance new_instance
  | Suspect_cleared i -> sprintf "%s cleared: fresh liveness evidence" i
  | Stale_heartbeat i -> sprintf "%s: stale-generation heartbeat dropped" i
  | Suspected { instance; silence; level } ->
    sprintf "%s suspected: silent for %.1f (level %d)" instance silence level
  | Restart_gave_up { instance; restarts } ->
    sprintf "giving up on %s after %d restart(s) (still suspected)" instance
      restarts
  | Restarted { old_instance; new_instance; host; restart; max_restarts } ->
    sprintf "restarted %s as %s on %s (restart %d of %d)" old_instance
      new_instance host restart max_restarts
  | Restart_failed { instance; error } ->
    sprintf "failed to restart %s: %s" instance error
  | Adopted { instance; base } ->
    sprintf "adopting %s as the current generation of %s" instance base
