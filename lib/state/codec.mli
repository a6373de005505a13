(** Serialisation of state images.

    Two layers, mirroring the paper's §1.2:

    - the {b abstract} format is canonical and machine-independent
      (big-endian, 64-bit, tagged);
    - a {b native} format per {!Arch.t} is what a module "really" divulges
      on its host: byte order and word width follow the architecture.

    A migration from host A to host B ships native(A) bytes and decodes
    them once on B: the receiver makes right. {!Native.receive} reads
    A's byte order and word width and refuses, with the encoder's
    message, an integer that B's word cannot hold; no abstract
    container or native(B) bytes are built on the way.
    {!Native.translate} is that decode followed by an encode for B.

    Container format: the "DRIMG2" magic, a version byte (2), the body
    and a CRC-32 trailer over everything before it, big-endian. A
    corrupted byte anywhere fails decode with ["checksum mismatch"]
    instead of restoring garbage; any other magic or version is
    refused. A count larger than the bytes left in the body fails
    decode before anything is allocated for it. *)

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

  val receive : src:Arch.t -> dst:Arch.t -> bytes -> (Image.t, string) result
  (** Decode a native([src]) container on a [dst] host, in one pass: the
      CRC is checked in place, the body is read in [src]'s layout, and
      an integer that [dst]'s word cannot hold fails with
      ["integer N does not fit a 32-bit word"] once the whole container
      has parsed (a malformed container reports its own fault first).
      The result and its error text are those of decoding on [src],
      encoding for [dst] and decoding that. *)

  val decode : Arch.t -> bytes -> (Image.t, string) result
  (** [decode arch] is [receive ~src:arch ~dst:arch]. *)

  val translate : src:Arch.t -> dst:Arch.t -> bytes -> (bytes, string) result
  (** native(src) bytes → native(dst) bytes: {!receive}, then {!encode}
      for [dst]. *)
end
