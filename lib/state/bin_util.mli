(** The cursor the state codecs read through, the [Buffer] writers the
    write-ahead log's records are built with, and the CRC-32 both
    check. *)

exception Truncated
(** Raised by readers when the input ends prematurely. *)

type reader = { data : bytes; mutable pos : int; limit : int }
(** A cursor: the next byte to read is [data.[pos]], and no read
    reaches [limit]. The image decoder in {!Codec} loads through these
    fields itself, and the journal's readers ({!Codec.Wire}) are its
    own, so every reader of a durable artefact shares this cursor. *)

val reader : ?len:int -> bytes -> reader
(** A reader over the first [len] bytes (default: all of them). Reading
    past [len] raises {!Truncated}, so a decoder bounded before a
    container's trailer cannot take the trailer for body — without
    copying the body out first. Raises [Invalid_argument] when [len] is
    negative or beyond the buffer. *)

val remaining : reader -> int
(** Bytes left before the bound. *)

val read_u8 : reader -> int

val write_u8 : Buffer.t -> int -> unit

val write_i64 : Buffer.t -> big:bool -> int -> unit
(** The [int] is converted inside the call, so no boxed [int64] is
    allocated per field. *)

val write_bytes : Buffer.t -> string -> unit

val crc32_sub : bytes -> off:int -> len:int -> int32
(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of the [len] bytes at
    [off], computed in place (no copy, no allocation per byte). Raises
    [Invalid_argument] when the range is not inside the buffer. *)

val crc32 : bytes -> int32
(** {!crc32_sub} over the whole byte string. *)

val with_buffer : (Buffer.t -> 'a) -> 'a
(** Run [f] with a pooled scratch buffer (cleared before use, returned
    to the pool afterwards, even on exceptions). The buffer must not
    escape [f] — extract the contents with {!sealed}, [Buffer.to_bytes]
    or [Buffer.contents] before returning. Not reentrant-safe beyond the
    pool simply handing out a fresh buffer when empty. *)

val sealed : Buffer.t -> bytes
(** The buffer's contents followed by their big-endian CRC-32: one copy
    out of the buffer, checksummed in the output. *)
