(** Durable encoding of the reconfiguration journal.

    The control-plane records appended to the write-ahead log
    ({!Dr_wal.Wal}) by {!Journal}: a script opens with {!record.Begin},
    logs one {!record.Entry} per journalled primitive ({e before} the
    bus operation applies), and closes with either {!record.Commit} or
    an {!record.Abort} followed by one {!record.Undo_done} per undone
    entry and a final {!record.Abort_done}. {!Recovery} replays this
    grammar after a controller crash.

    Everything rides the abstract wire layout ({!Dr_state.Codec.Wire}:
    big-endian, 64-bit, tagged values); a [Divulged] entry spills the
    complete DRIMG2 container the move ships, byte for byte, so it
    carries its own CRC in addition to the log record's framing
    checksum, and a decoded entry holds both the container and its
    image. A script logs its
    divulged image once: a [Killed] entry carries none, and its undo
    takes the image the same instance divulged earlier in the script.
    Module specifications round-trip through the MIL
    pretty-printer/parser.

    The journal {e entry} type lives here (not in {!Journal}) so the
    codec and the journal don't depend on each other; {!Journal}
    re-exports it. *)

type entry =
  | Added_route of Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint
  | Deleted_route of Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint
  | Moved_queue of { mq_src : Dr_bus.Bus.endpoint; mq_dst : Dr_bus.Bus.endpoint }
  | Dropped_queue of Dr_bus.Bus.endpoint * Dr_state.Value.t list
  | Spawned of string
  | Killed of {
      k_instance : string;
      k_module : string;
      k_host : string;
      k_spec : Dr_mil.Spec.module_spec option;
      k_queues : (string * Dr_state.Value.t list) list;
    }
  | Armed_divulge of string
  | Divulged of {
      d_cap : Primitives.module_cap;
      d_image : Dr_state.Image.t;
      d_container : bytes;
          (** [d_image]'s abstract container, the bytes the move ships
              ({!Dr_state.Codec.encode_abstract}); logged verbatim *)
    }
  | Renamed_transport of { rt_old : string; rt_new : string; rt_fence : bool }

type record =
  | Begin of { sid : int; label : string }
  | Entry of { sid : int; entry : entry }
  | Commit of { sid : int }
  | Abort of { sid : int; reason : string }
  | Undo_done of { sid : int; index : int }
      (** the entry at 1-based application-order [index] has been
          undone *)
  | Abort_done of { sid : int }
  | Wave_begin of { wid : int; w_group : (string * string) list; w_target : string }
      (** a rolling-replacement wave ({!Rolling}) opened over the
          [(slot, current instance)] pairs in [w_group], upgrading each
          slot to module [w_target]. Wave records share the WAL with the
          per-script grammar but form their own (coarser) grammar:
          replica completions between begin and commit/abort. *)
  | Wave_replica_done of { wid : int; wr_slot : string; wr_instance : string }
      (** slot [wr_slot] finished its canary and is now permanently
          served by [wr_instance] *)
  | Wave_commit of { wid : int }
  | Wave_abort of { wid : int; w_reason : string }

val kind_of : record -> int
(** The WAL record kind byte for this record. *)

val is_wave_kind : int -> bool
(** [true] for the four wave record kinds — {!Recovery.scan} skips
    them (they are not part of the per-script grammar);
    {!Rolling.recover} reads them. *)

val encode : record -> bytes

val append : Dr_wal.Wal.t -> record -> int
(** Append the record to the log, framed straight out of the encoder's
    buffer (the bytes written are [encode]'s); returns its LSN. *)

val decode : kind:int -> bytes -> (record, string) result
(** Inverse of {!encode} on the WAL's [(kind, body)] pair. Trailing
    bytes, unknown tags, and embedded image/spec damage all fail with a
    descriptive error — never a mis-parse. *)

val describe : record -> string
(** One-line human summary (for [drc recover] inspection). *)
