(** Runtime values of MiniProc.

    Heap data is referenced symbolically: [Varr block] and
    [Vptr (block, offset)] name a heap block by an integer id, never by a
    machine address. This is the paper's pointer translation — "a pointer
    variable containing an explicit address would be translated into a
    variable that points to the nth character of a string located at some
    symbolic address" (§3). *)

type t =
  | Vint of int
  | Vfloat of float
  | Vbool of bool
  | Vstr of string
  | Varr of int          (** heap block id *)
  | Vptr of int * int    (** heap block id, element offset *)
  | Vnull

val small_int_limit : int

val small_ints : t array
(** [small_ints.(i)] is [Vint i] for [0 <= i < small_int_limit]: the
    image decoder's table, so an int a container carries in that range
    allocates nothing. Never written. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val type_name : t -> string

val default_of_ty : Dr_lang.Ast.ty -> t
(** Zero value used for frame-entry initialisation and dummy arguments. *)

val matches_ty : t -> Dr_lang.Ast.ty -> bool
(** Does this value inhabit the given static type? [Vnull] inhabits every
    array/pointer type; block ids are not validated here. *)
