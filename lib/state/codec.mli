(** Serialisation of state images.

    Two layers, mirroring the paper's §1.2:

    - the {b abstract} format is canonical and machine-independent
      (big-endian, 64-bit, tagged);
    - a {b native} format per {!Arch.t} is what a module "really" divulges
      on its host: byte order and word width follow the architecture.

    A migration from host A to host B translates
    native(A) → abstract → native(B); {!Native.translate} performs the
    round trip and reports heterogeneity errors (e.g. an integer that does
    not fit the destination word).

    Container format: the "DRIMG2" magic, a version byte (2), the body
    and a CRC-32 trailer over everything before it, big-endian. A
    corrupted byte anywhere fails decode with ["checksum mismatch"]
    instead of restoring garbage; any other magic or version is
    refused. *)

exception Malformed of string

val encode_abstract : Image.t -> bytes

val decode_abstract : bytes -> (Image.t, string) result

(** Abstract-layout wire primitives (big-endian, 64-bit, the same
    encoding the canonical image body uses), exposed for other durable
    formats — notably the write-ahead log's journal records — so every
    on-disk artefact shares one integer/string/value encoding. *)
module Wire : sig
  val write_int : Buffer.t -> int -> unit
  val read_int : Bin_util.reader -> int

  val write_string : Buffer.t -> string -> unit
  val read_string : Bin_util.reader -> string

  val write_value : Buffer.t -> Value.t -> unit
  val read_value : Bin_util.reader -> Value.t

  val guarded : (unit -> 'a) -> ('a, string) result
  (** Run a decoder, mapping {!Malformed} and truncation to [Error]. *)
end

module Native : sig
  val encode : Arch.t -> Image.t -> (bytes, string) result
  (** Fails when a captured integer exceeds the architecture word. *)

  val decode : Arch.t -> bytes -> (Image.t, string) result

  val translate : src:Arch.t -> dst:Arch.t -> bytes -> (bytes, string) result
  (** native(src) bytes → native(dst) bytes, through the abstract image. *)

  val recode : src:Arch.t -> dst:Arch.t -> bytes -> (bytes, string) result
  (** Zero-copy {!translate}: when the two architectures share byte
      order and word width, so their native containers are
      byte-identical, the input bytes are returned unchanged (no
      decode, no re-encode); otherwise falls back to the authoritative
      translate path. The receiver's decode still verifies the CRC, so
      corruption cannot ride the fast path. *)
end
