(** Append-only, checksummed write-ahead log.

    The log is a sequence of records with contiguous, strictly
    increasing log sequence numbers (LSNs), stored as {e segment} blobs
    ([seg-<first lsn>.wal]) on a {!Storage.t}. Each record is framed

    {v [u32 length][u32 CRC-32 of payload][payload = i64 lsn, u8 kind, body] v}

    so a flipped bit anywhere in a record is caught by the checksum and
    a partially written record is caught by the length. A [MANIFEST]
    blob (whole-blob atomic write) carries the active checkpoint LSN;
    [ckpt-<lsn>] blobs carry an opaque checkpoint state.

    {b Open-time recovery} ({!create} on existing storage): segments are
    scanned in LSN order; a torn or corrupt record in the {e last}
    segment truncates the log to the clean prefix before it (a torn
    tail — the crash interrupted an append), while a corrupt record, an
    LSN gap, or an overlapping/duplicated segment anywhere {e earlier}
    fails loudly — that is damage, not a crash, and replaying around it
    would lie about history. A manifest whose checkpoint is behind an
    existing [ckpt-] blob is likewise rejected (checkpoints must be
    monotonic).

    {b Durability}: [append] buffers; {!sync} makes every buffered
    record durable. [sync_every] batches fsyncs (group commit): with
    [sync_every = 1] each append syncs before returning — the strict
    write-ahead discipline the reconfiguration journal uses — while
    larger values trade the tail of the log for throughput (the append
    bench measures exactly this).

    {b Checkpoint + GC}: {!checkpoint} declares every record below the
    current head settled: it rolls to a fresh segment, writes the
    checkpoint blob, atomically updates the manifest, then deletes the
    segments and checkpoint blobs that precede it — the log stays
    bounded by the live suffix. *)

type t

type config = {
  segment_bytes : int;  (** roll the active segment beyond this size *)
  sync_every : int;  (** fsync batching: sync after this many appends *)
}

val default_config : config
(** 64 KiB segments, [sync_every = 1] (strict write-ahead). *)

type open_report = {
  or_segments : int;  (** segments scanned *)
  or_records : int;  (** records recovered (at or above the checkpoint) *)
  or_truncated_bytes : int;  (** torn tail cut from the last segment *)
  or_last_lsn : int;  (** 0 when the log is empty *)
}

val create : ?config:config -> Storage.t -> (t, string) result
(** Open (recovering as described above) or initialise the log. *)

val open_report : t -> open_report

val append : t -> kind:int -> bytes -> int
(** Frame and append one record; returns its LSN. Syncs before
    returning when the batching threshold is reached. *)

val append_buffer : t -> kind:int -> Buffer.t -> int
(** {!append} of the buffer's contents, framed straight out of the
    buffer: the body is copied once, into the frame. *)

val sync : t -> unit
(** Make every appended record durable now. *)

val next_lsn : t -> int

val durable_lsn : t -> int
(** Highest LSN guaranteed to survive a crash (0 when none). *)

val checkpoint_lsn : t -> int
(** First LSN replay must consider (1 for a fresh log). *)

val checkpoint : ?state:bytes -> t -> unit
(** Checkpoint at the current head and garbage-collect. [state] is an
    opaque snapshot returned by {!checkpoint_state} after reopen. *)

val checkpoint_state : t -> bytes option

val records : t -> (int * int * bytes) list
(** The {e durable} records from the checkpoint on, as
    [(lsn, kind, body)] — what a restarted controller would replay.
    Re-reads storage: buffered, unsynced appends are not included. *)

val segment_names : t -> string list

val bytes_since_checkpoint : t -> int
(** Appended payload bytes since the last checkpoint — the caller's
    checkpoint policy trigger. *)

val appends : t -> int

val syncs : t -> int

val check_invariants : t -> (unit, string) result
(** Re-scan storage and verify the safety invariants as a monitor:
    LSNs strictly increasing and contiguous across segments, every
    record's checksum valid, manifest checkpoint at or above every
    [ckpt-] blob and at most one head past the last record. *)
