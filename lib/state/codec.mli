(** Serialisation of state images.

    Two layers, mirroring the paper's §1.2:

    - the {b abstract} format is canonical and machine-independent
      (big-endian, 64-bit, tagged);
    - a {b native} format per {!Arch.t} is what a module "really" divulges
      on its host: byte order and word width follow the architecture.

    A move ships the abstract container: the source encodes its image
    once ({!encode_abstract}), the journal logs those bytes, and the
    destination decodes the same bytes for its own word
    ({!decode_for}), refusing an integer its word cannot hold. The
    native layouts stay for the paper's tables and the [drc] CLI
    ({!Native}); no move builds one.

    An encoder sizes the container first and writes it once into bytes
    of that size; the decoder reads it through a cursor bounded before
    its trailer ({!Bin_util.reader}).

    Container format: the "DRIMG2" magic, a version byte (2), the body
    and a CRC-32 trailer over everything before it, big-endian. A
    corrupted byte anywhere fails decode with ["checksum mismatch"]
    instead of restoring garbage; any other magic or version is
    refused. A count larger than the bytes left in the body fails
    decode before anything is allocated for it. *)

exception Malformed of string

val encode_abstract : Image.t -> bytes

val decode_abstract : bytes -> (Image.t, string) result

val decode_for : Arch.t -> bytes -> (Image.t, string) result
(** Decode an abstract container on a host of the given architecture:
    {!decode_abstract}, except that bound for a 32-bit word an integer
    that does not fit fails with ["integer N does not fit a 32-bit
    word"] once the whole container has parsed (a malformed container
    reports its own fault first). *)

(** Abstract-layout wire primitives (big-endian, 64-bit, the same
    encoding the canonical image body uses), exposed for other durable
    formats — notably the write-ahead log's journal records — so every
    on-disk artefact shares one integer/string/value encoding. The
    readers are the image decoder's own. *)
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
