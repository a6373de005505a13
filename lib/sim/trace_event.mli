(** The events a simulation records in its {!Trace}.

    One constructor per kind of trace line, across the bus, the reliable
    layer, the reconfiguration journal, scripts, recovery, rolling waves,
    the failure detector and the supervisor. A constructor captures its
    arguments when the line is recorded — including fields that later
    change, such as a channel's epoch, RTO and endpoints — and nothing is
    formatted then. {!category} and {!render} give the line's text view
    when a reader asks for it; the golden traces pin that text byte for
    byte. The model checker's monitors and the timeline match
    constructors and never read the text. *)

type endpoint = string * string
(** [(instance, interface)], the bus's endpoint. *)

type undo_step = { us_label : string; us_index : int; us_total : int }
(** One step of a journal rollback: the script's label, the step's
    index and the number of steps; rendered as the prefix
    ["<label> [<index>/<total>]: "]. *)

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

val category : t -> string
(** The trace category the event is filed under (["retx"], ["drain"],
    ["script"], ...). Computing it formats nothing. *)

val render : t -> string
(** The event's detail line. *)
