(** Endian-aware binary readers/writers used by the state codecs. *)

exception Truncated
(** Raised by readers when the input ends prematurely. *)

type reader

val reader : ?len:int -> bytes -> reader
(** A reader over the first [len] bytes (default: all of them). Reading
    past [len] raises {!Truncated}, so a decoder bounded before a
    container's trailer cannot take the trailer for body — without
    copying the body out first. Raises [Invalid_argument] when [len] is
    negative or beyond the buffer. *)

val remaining : reader -> int
(** Bytes left before the bound. *)

(** Fixed-width integers travel as OCaml [int]s: the conversion to and
    from [int32]/[int64] happens inside the call, so no boxed integer is
    allocated per field. A 64-bit field read back into an [int] keeps
    its low 63 bits ([Int64.to_int]). *)

val read_u8 : reader -> int
val read_i32 : reader -> big:bool -> int
val read_i64 : reader -> big:bool -> int
val read_f64 : reader -> big:bool -> float
val read_bytes : reader -> int -> string

val write_u8 : Buffer.t -> int -> unit
val write_i32 : Buffer.t -> big:bool -> int -> unit
val write_i64 : Buffer.t -> big:bool -> int -> unit
val write_f64 : Buffer.t -> big:bool -> float -> unit
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
