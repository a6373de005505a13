(** Blob storage for the write-ahead log.

    The log (see {!Wal}) is built on four primitives — list, read,
    atomic whole-blob write, append — plus [sync], which makes every
    append performed so far durable. Two backends:

    - {!memory} keeps blobs in a hashtable and {e models} durability:
      appends land in an unsynced tail that {!crash} discards, so a
      deterministic test can check exactly what a controller crash
      between [append] and [sync] loses;
    - {!file} maps blobs to files in a directory ([write] goes through a
      temp file + rename so a torn manifest update can never be
      observed; [sync] flushes the buffered appends).

    All blob names are flat (no directories) and must match
    [[A-Za-z0-9._-]+]. *)

type t = {
  st_kind : string;  (** "memory" or "file", for reports *)
  st_list : unit -> string list;  (** sorted blob names *)
  st_read : string -> (bytes, string) result;
  st_write : string -> bytes -> unit;  (** atomic whole-blob replace *)
  st_append : string -> bytes -> unit;
      (** the memory backend keeps [bytes] itself: do not modify them
          after the append *)
  st_delete : string -> unit;
  st_sync : unit -> unit;  (** make every append so far durable *)
}

(** {1 In-memory backend} *)

type mem

val memory : unit -> mem

val storage_of_mem : mem -> t

val crash : mem -> unit
(** Discard every append since the last [sync] — the unsynced page
    cache of a crashed controller. Synced bytes and whole-blob writes
    survive. *)

val corrupt_byte : mem -> blob:string -> at:int -> unit
(** Flip one bit of the named blob (fault injection for decoder
    tests). *)

val truncate_blob : mem -> blob:string -> len:int -> unit
(** Cut the named blob to [len] bytes (a torn tail). *)

(** {1 File backend} *)

val file : dir:string -> t
(** Blobs are files directly under [dir] (created if missing). *)
