(** The abstract process-state image (paper §1.2).

    An image is what a prepared module divulges at a reconfiguration
    point: one {!record} per captured activation record — deepest frame
    first, [main] last — plus the transitively reachable heap blocks.
    Restoration consumes records LIFO (the clone's [main] restores first,
    taking the record its predecessor captured last).

    Temporary values, the program counter and call/return linkage are
    deliberately absent: resume locations are the integer edge labels of
    the reconfiguration graph, stored in each record's [location]. *)

type heap_block = { elem_ty : Dr_lang.Ast.ty; cells : Value.t array }

type record = { location : int; values : Value.t array }
(** One captured activation record: its resume location and its
    captured values, in capture order. No array of an image is written
    after {!make}: the digest memo relies on that, and a machine fed an
    image without heap blocks restores from its records where they
    lie. *)

type t = {
  source_module : string;   (** module the state was captured from *)
  records : record list;    (** capture order *)
  heap : (int * heap_block) list;  (** captured blocks, symbolic ids *)
  mutable digest_memo : int64 option;
      (** cached {!digest}; construct through {!make}/{!empty} and never
          update [records]/[heap] through [{ t with ... }] without
          resetting it *)
}

val make :
  source_module:string ->
  records:record list ->
  heap:(int * heap_block) list ->
  t

val empty : source_module:string -> t

val push_record : t -> record -> t
(** Append a record (capture order). *)

val pop_record : t -> (record * t) option
(** Remove the most recently captured record — restoration order. *)

val depth : t -> int

val equal : t -> t -> bool
(** Structural equality. Floats compare by their bits, as {!digest}
    mixes them, so [0.0] and [-0.0] differ. *)

val digest : t -> int64
(** Structural 64-bit digest (FNV-1a mixing) over everything {!equal}
    compares. [equal a b] implies [digest a = digest b]; the scripts
    use it to verify a restored image end-to-end across
    encode/translate/decode ({!Dr_bus.Bus.deposit_state} [?expect]).
    Memoised in the handle: the first call hashes the payload, repeats
    are free (the deposit path re-checks the digest computed at
    capture time). *)

val pp : Format.formatter -> t -> unit

val value_size : Value.t -> int
(** Abstract size in bytes of one value (8 per scalar word, strings by
    length); used by the benchmarks to report image sizes. *)

val byte_size : t -> int
(** Sum of {!value_size} over every record and heap cell, plus 8 per
    record and 16 per block. *)

val block_refs : record list -> Value.t list
(** The values of these records that name a heap block ([Varr],
    [Vptr]), in capture order: the roots of {!gather_blocks}. Allocates
    nothing when no value does. *)

val gather_blocks :
  lookup:(int -> heap_block option) ->
  Value.t list ->
  (int * heap_block) list
(** Transitive closure of heap blocks reachable from the given values.
    [lookup] resolves a live block id; unknown ids are ignored (dangling
    pointers are the programmer's responsibility, as in the paper).
    Result is sorted by block id; shared blocks appear once. *)
