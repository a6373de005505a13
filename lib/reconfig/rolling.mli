(** Autonomic rolling replacement: upgrade a replica group one member
    at a time under live traffic.

    The controller runs a {e wave} over a group of interchangeable
    replicas ([(slot, instance)] pairs — the slot is the stable name, the
    instance the generation currently serving it). For each slot, in
    order:

    + {b drain} — the member stops admitting new work
      ({!Dr_bus.Bus.mark_draining}: the bus reroutes deliveries to live
      siblings) and its queues are served out, bounded by
      [rc_drain_timeout] (leftovers are not lost — {!Script.replace}
      moves pending queues to the successor);
    + {b replace} — the drained member is upgraded to [rc_target]
      through the journaled {!Script.replace} (state transfer, atomic
      rebinding, transactional rollback on failure; live pre-copy when
      [rc_precopy]);
    + {b canary} — the new generation holds the slot under live traffic
      for [rc_canary_window] of virtual time (extended until
      [rc_canary_min_samples] responses accumulate), judged against the
      SLO gates read from the bus's metrics registry;
    + {b commit or roll back} — on pass, a [Wave_replica_done] record
      makes the slot's upgrade durable and the wave moves on; on fail,
      the canary is replaced {e back} to the slot's original module
      (its state carries over — images journalled by the per-replica
      scripts are retained until the wave ends, because the wave holds
      the control log's checkpoint gate open) and the attempt is
      retried after exponential backoff, up to [rc_retries] attempts.

    A slot that exhausts its attempts aborts the wave: a [Wave_abort]
    record is logged and every slot already upgraded in this wave is
    {e unwound} — replaced back to its original module, newest first.

    The wave is journalled through the same WAL as the per-replica
    scripts ([Wave_begin] / [Wave_replica_done] / [Wave_commit] /
    [Wave_abort]); {!recover} brings a bus whose controller died
    mid-wave back to a consistent roster: per-replica scripts are
    rolled forward/back by {!Recovery.replay} (so every slot is wholly
    on one generation), drain marks left by the dead controller are
    cleared, and the open wave is reported to the caller — conservative
    abort-and-hold, never a blind re-roll.

    If a {!Supervisor} watches the group, pass it: the controller
    re-resolves each slot's current generation through it (so a member
    crashed mid-drain and restarted fenced by the supervisor is
    upgraded once, under its new name) and {!Supervisor.adopt}s each
    new generation so supervision survives the wave. *)

(** SLO gates for the canary judgement, evaluated over the metric
    {e deltas} accumulated during the canary window. *)
type slo = {
  slo_p99 : float option;
      (** ceiling on the window's p99 response latency
          ({!Dr_obs.Metrics.bucket_quantile} over the
          {!latency_metric} histogram deltas); [None] = don't gate *)
  slo_error_rate : float;
      (** ceiling on [errors / answered] during the window *)
  slo_max_shed : int;
      (** ceiling on requests shed (dropped at admission) during the
          window *)
}

type config = {
  rc_target : string;  (** module every slot is upgraded to *)
  rc_drain_timeout : float;  (** max virtual time waiting for queues *)
  rc_canary_window : float;
  rc_canary_min_samples : int;
      (** minimum answered responses before judging; the window is
          extended (up to 3x) to reach it *)
  rc_retries : int;  (** attempts per slot, including the first *)
  rc_backoff : float;
      (** base retry delay; attempt [a] waits [rc_backoff * 2^(a-1)] *)
  rc_precopy : bool;  (** live pre-copy the replace's state transfer *)
  rc_replace_deadline : float;
      (** per-attempt signal-to-divulge deadline forwarded to
          {!Script.replace} *)
  rc_slo : slo;
}

val default_config : target:string -> config
(** Drain 10.0, canary window 15.0 / 5 samples, 3 attempts, backoff
    2.0, no pre-copy, replace deadline 30.0; SLO p99 <= 16.0, error
    rate <= 0.01, no sheds. *)

(** {1 Metric names}

    The contract between the controller and whatever drives traffic:
    the canary judge reads these instruments, labelled
    [[("slot", slot)]], from the bus's metrics registry. A load
    generator that wants its traffic judged must record into them. *)

val latency_metric : string
(** Histogram of per-request response latency. *)

val answered_metric : string
(** Counter of answered requests. *)

val error_metric : string
(** Counter of wrong/failed responses. *)

val shed_metric : string
(** Counter of requests shed at admission (no live member). *)

(** {1 Running a wave} *)

type outcome =
  | Upgraded of string  (** final instance name *)
  | Rolled_back of string  (** last failure reason; slot left on its
                               original module *)
  | Skipped  (** wave aborted before this slot was attempted *)

type replica_report = {
  rr_slot : string;
  rr_from : string;  (** generation at wave start *)
  rr_attempts : int;
  rr_rollbacks : int;  (** canary failures rolled back *)
  rr_outcome : outcome;
}

type report = {
  rp_wid : int;
  rp_target : string;
  rp_committed : bool;
  rp_reason : string option;  (** abort reason when not committed *)
  rp_replicas : replica_report list;
  rp_unwound : int;  (** upgraded slots rolled back by an abort *)
}

val run :
  Dr_bus.Bus.t ->
  config ->
  group:(string * string) list ->
  ?supervisor:Supervisor.t ->
  ?on_retarget:(slot:string -> instance:string -> unit) ->
  unit ->
  (report, string) result
(** Run one wave over [group] ([(slot, current instance)], upgraded in
    list order). Synchronous: drives the bus itself through drain,
    canary and backoff windows, so live traffic (scheduled on the same
    engine) keeps flowing. [on_retarget] fires whenever the instance
    serving a slot changes — upgrade, rollback, or unwind — so a load
    generator can follow the roster. Registers the group as a bus drain
    group and attaches a metrics registry if none is present.

    [Error] on invalid configuration (an empty group, fewer than one
    retry, a negative backoff, a drain timeout or canary window that is
    not positive, or any of the three not finite), an unknown group
    member, or a controller crash mid-wave (recover with {!recover}); canary
    failures and aborted waves are reported through [Ok] with
    [rp_committed = false]. *)

val recover : Dr_bus.Bus.t -> (Recovery.report * Recovery.wave list, string) result
(** Crash recovery for a bus whose controller died mid-wave. Scans the
    wave records {e before} {!Recovery.replay} checkpoints them away,
    clears leftover drain marks, replays the per-replica scripts, and
    re-registers wave ids with the controller's id allocator. The
    returned waves tell the caller which slots the open wave (if any)
    had already upgraded — the roster holds there; re-rolling is the
    caller's decision. *)

val pp_report : Format.formatter -> report -> unit
