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

type record = { location : int; values : Value.t list }

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

val gather_blocks :
  lookup:(int -> heap_block option) ->
  Value.t list ->
  (int * heap_block) list
(** Transitive closure of heap blocks reachable from the given values.
    [lookup] resolves a live block id; unknown ids are ignored (dangling
    pointers are the programmer's responsibility, as in the paper).
    Result is sorted by block id; shared blocks appear once. *)

(** {1 Delta images (pre-copy)}

    A delta is the part of a capture that differs from a base snapshot
    taken while the module was still serving (live pre-copy). Slots are
    addressed by (record index, value index) against the base's record
    layout; heap blocks are shipped whole when changed or new
    ([d_heap_new]) and pulled from the base by id otherwise
    ([d_heap_keep]). *)

type delta = {
  d_source_module : string;
  d_base_digest : int64;   (** digest of the base this delta applies to *)
  d_record_count : int;
  d_slots : (int * int * Value.t) list;
  d_heap_new : (int * heap_block) list;
  d_heap_keep : int list;
}

val diff : base:t -> t -> delta option
(** [diff ~base final] builds the delta such that [apply_delta ~base]
    reproduces [final], by comparing the two images: it ships each slot
    whose value differs from the base's (floats compare by their bits,
    as {!digest} mixes them, so [0.0] → [-0.0] ships) and each heap
    block that is new or has changed; a block equal to the base's is
    kept by id. [None] on a shape mismatch (module, record count, a
    record's location or arity) — the caller falls back to the full
    image. *)

val apply_delta : base:t -> delta -> t option
(** Reconstruct the full image. [None] if [base]'s digest does not match
    [d_base_digest] or the delta is structurally incompatible. *)

val delta_byte_size : delta -> int
(** Abstract wire size of the delta, comparable with {!byte_size}. *)
