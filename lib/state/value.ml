type t =
  | Vint of int
  | Vfloat of float
  | Vbool of bool
  | Vstr of string
  | Varr of int
  | Vptr of int * int
  | Vnull

let small_int_limit = 1024

let small_ints = Array.init small_int_limit (fun i -> Vint i)

let equal a b =
  match a, b with
  | Vint x, Vint y -> x = y
  | Vfloat x, Vfloat y -> Float.equal x y
  | Vbool x, Vbool y -> x = y
  | Vstr x, Vstr y -> String.equal x y
  | Varr x, Varr y -> x = y
  | Vptr (x, i), Vptr (y, j) -> x = y && i = j
  | Vnull, Vnull -> true
  | (Vint _ | Vfloat _ | Vbool _ | Vstr _ | Varr _ | Vptr _ | Vnull), _ -> false

let pp ppf = function
  | Vint i -> Fmt.int ppf i
  | Vfloat f -> Fmt.pf ppf "%g" f
  | Vbool b -> Fmt.bool ppf b
  | Vstr s -> Fmt.pf ppf "%S" s
  | Varr block -> Fmt.pf ppf "<arr #%d>" block
  | Vptr (block, off) -> Fmt.pf ppf "<ptr #%d+%d>" block off
  | Vnull -> Fmt.string ppf "null"

let to_string v = Fmt.str "%a" pp v

let type_name = function
  | Vint _ -> "int"
  | Vfloat _ -> "float"
  | Vbool _ -> "bool"
  | Vstr _ -> "string"
  | Varr _ -> "array"
  | Vptr _ -> "pointer"
  | Vnull -> "null"

let default_of_ty : Dr_lang.Ast.ty -> t = function
  | Tint -> Vint 0
  | Tfloat -> Vfloat 0.0
  | Tbool -> Vbool false
  | Tstr -> Vstr ""
  | Tarr _ | Tptr _ -> Vnull

let matches_ty v (ty : Dr_lang.Ast.ty) =
  match v, ty with
  | Vint _, Tint | Vfloat _, Tfloat | Vbool _, Tbool | Vstr _, Tstr -> true
  | Varr _, Tarr _ | Vptr _, Tptr _ -> true
  | Vnull, (Tarr _ | Tptr _) -> true
  | (Vint _ | Vfloat _ | Vbool _ | Vstr _ | Varr _ | Vptr _ | Vnull), _ -> false
