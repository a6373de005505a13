type heap_block = { elem_ty : Dr_lang.Ast.ty; cells : Value.t array }

type record = { location : int; values : Value.t array }

type t = {
  source_module : string;
  records : record list;
  heap : (int * heap_block) list;
  mutable digest_memo : int64 option;
}

let make ~source_module ~records ~heap =
  { source_module; records; heap; digest_memo = None }

let empty ~source_module =
  { source_module; records = []; heap = []; digest_memo = None }

(* [{ t with ... }] would copy a stale memo along with the fields; every
   structural update must reset it. *)
let push_record t record =
  { t with records = t.records @ [ record ]; digest_memo = None }

let pop_record t =
  match List.rev t.records with
  | [] -> None
  | last :: rev_rest ->
    Some (last, { t with records = List.rev rev_rest; digest_memo = None })

let depth t = List.length t.records

(* Floats compare by their bits, as [digest] mixes them: [Value.equal]
   calls [0.0] and [-0.0] equal, so [equal] would hold between images
   that digest differently. *)
let same_value a b =
  match a, b with
  | Value.Vfloat x, Value.Vfloat y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.equal a b

let equal_block a b =
  Dr_lang.Ast.equal_ty a.elem_ty b.elem_ty
  && Array.length a.cells = Array.length b.cells
  && Array.for_all2 same_value a.cells b.cells

let equal_record a b =
  a.location = b.location
  && Array.length a.values = Array.length b.values
  && Array.for_all2 same_value a.values b.values

let equal a b =
  String.equal a.source_module b.source_module
  && List.length a.records = List.length b.records
  && List.for_all2 equal_record a.records b.records
  && List.length a.heap = List.length b.heap
  && List.for_all2
       (fun (i, ba) (j, bb) -> i = j && equal_block ba bb)
       a.heap b.heap

let pp ppf t =
  Fmt.pf ppf "@[<v>image of %s (%d records, %d heap blocks)" t.source_module
    (List.length t.records) (List.length t.heap);
  List.iteri
    (fun i r ->
      Fmt.pf ppf "@,  record %d: location=%d [%a]" i r.location
        (Fmt.array ~sep:(Fmt.any ", ") Value.pp)
        r.values)
    t.records;
  List.iter
    (fun (id, block) ->
      Fmt.pf ppf "@,  block #%d: %s[%d]" id
        (Dr_lang.Pretty.ty_to_string block.elem_ty)
        (Array.length block.cells))
    t.heap;
  Fmt.pf ppf "@]"

(* Structural 64-bit digest (FNV-1a style mixing) over everything
   [equal] compares: the module name, each record's location and
   values, and each heap block's id, element type and cells. Equal
   images digest equally; a restore can therefore verify that the image
   it feeds is the image that was captured ([Bus.deposit_state
   ?expect]). This is an end-to-end check above the container's CRC-32:
   it survives encode/translate/decode across architectures.

   The 64-bit state lives in an 8-byte buffer between records and
   blocks; an [int64] passed between functions would be boxed at every
   step. Within a record or a block it is read into a local [int64 ref]
   that no closure captures, which the compiler keeps unboxed in a
   register: the buffer is read and written once per record or block,
   and mixing a value other than a string allocates nothing. *)
let fnv_prime = 0x100000001b3L

let[@inline] mix h v = Int64.mul (Int64.logxor h v) fnv_prime

let[@inline] mix_int h i = mix h (Int64.of_int i)

let mix_chars h s =
  let h = ref (mix_int h (String.length s)) in
  for k = 0 to String.length s - 1 do
    h := mix_int !h (Char.code (String.unsafe_get s k))
  done;
  !h

let[@inline] mix_value h = function
  | Value.Vint i -> mix_int (mix_int h 1) i
  | Value.Vfloat f -> mix (mix_int h 2) (Int64.bits_of_float f)
  | Value.Vbool b -> mix_int (mix_int h 3) (if b then 1 else 0)
  | Value.Vstr s -> mix_chars (mix_int h 4) s
  | Value.Varr block -> mix_int (mix_int h 5) block
  | Value.Vptr (block, off) -> mix_int (mix_int (mix_int h 6) block) off
  | Value.Vnull -> mix_int h 7

let rec mix_ty h = function
  | Dr_lang.Ast.Tint -> mix_int h 1
  | Dr_lang.Ast.Tfloat -> mix_int h 2
  | Dr_lang.Ast.Tbool -> mix_int h 3
  | Dr_lang.Ast.Tstr -> mix_int h 4
  | Dr_lang.Ast.Tarr t -> mix_ty (mix_int h 5) t
  | Dr_lang.Ast.Tptr t -> mix_ty (mix_int h 6) t

let mix_record st r =
  let n = Array.length r.values in
  let h = ref (mix_int (mix_int (Bytes.get_int64_ne st 0) r.location) n) in
  for k = 0 to n - 1 do
    h := mix_value !h (Array.unsafe_get r.values k)
  done;
  Bytes.set_int64_ne st 0 !h

let mix_block st (id, b) =
  let h = ref (mix_ty (mix_int (Bytes.get_int64_ne st 0) id) b.elem_ty) in
  h := mix_int !h (Array.length b.cells);
  for k = 0 to Array.length b.cells - 1 do
    h := mix_value !h (Array.unsafe_get b.cells k)
  done;
  Bytes.set_int64_ne st 0 !h

let compute_digest t =
  let st = Bytes.create 8 in
  Bytes.set_int64_ne st 0
    (mix_int
       (mix_chars 0xcbf29ce484222325L t.source_module)
       (List.length t.records));
  List.iter (mix_record st) t.records;
  Bytes.set_int64_ne st 0
    (mix_int (Bytes.get_int64_ne st 0) (List.length t.heap));
  List.iter (mix_block st) t.heap;
  Bytes.get_int64_ne st 0

(* Memoised: the deposit path re-checks the digest of an image whose
   digest was already computed at capture/translate time; records and
   heap are never mutated after construction (a machine fed an image
   reads its records and copies its cells), so caching in the handle is
   sound. *)
let digest t =
  match t.digest_memo with
  | Some d -> d
  | None ->
    let d = compute_digest t in
    t.digest_memo <- Some d;
    d

let value_size = function
  | Value.Vint _ | Value.Vfloat _ | Value.Vbool _ -> 8
  | Value.Vstr s -> 8 + String.length s
  | Value.Varr _ -> 8
  | Value.Vptr _ -> 16
  | Value.Vnull -> 8

let byte_size t =
  let record_size r =
    8 + Array.fold_left (fun acc v -> acc + value_size v) 0 r.values
  in
  let block_size (_, b) =
    16 + Array.fold_left (fun acc v -> acc + value_size v) 0 b.cells
  in
  List.fold_left (fun acc r -> acc + record_size r) 0 t.records
  + List.fold_left (fun acc b -> acc + block_size b) 0 t.heap

(* values.(0 .. i) that name a block, in order, ahead of [acc] *)
let rec refs_upto values i acc =
  if i < 0 then acc
  else
    refs_upto values (i - 1)
      (match Array.unsafe_get values i with
      | (Value.Varr _ | Value.Vptr _) as v -> v :: acc
      | Value.Vint _ | Value.Vfloat _ | Value.Vbool _ | Value.Vstr _
      | Value.Vnull ->
        acc)

let block_refs records =
  List.fold_right
    (fun r acc -> refs_upto r.values (Array.length r.values - 1) acc)
    records []

let gather_blocks ~lookup roots =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let rec visit_value v =
    match v with
    | Value.Varr block | Value.Vptr (block, _) -> visit_block block
    | Value.Vint _ | Value.Vfloat _ | Value.Vbool _ | Value.Vstr _ | Value.Vnull
      ->
      ()
  and visit_block id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      match lookup id with
      | None -> ()
      | Some block ->
        acc := (id, block) :: !acc;
        Array.iter visit_value block.cells
    end
  in
  List.iter visit_value roots;
  List.sort (fun (a, _) (b, _) -> compare a b) !acc
