exception Malformed of string

let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

(* Value tags shared by abstract and native layouts. *)
let tag_int = 0
let tag_float = 1
let tag_bool = 2
let tag_str = 3
let tag_arr = 4
let tag_ptr = 5
let tag_null = 6

(* A "layout" fixes byte order and integer width; the abstract format is
   the big-endian 64-bit instance. Native formats use the architecture's
   parameters. *)
type layout = { big : bool; word_bits : int }

let abstract_layout = { big = true; word_bits = 64 }

let layout_of_arch (a : Arch.t) =
  { big = (a.endian = Arch.Big); word_bits = a.word_bits }

(* The one check on word width: a value a 32-bit word cannot hold is a
   heterogeneity error, raised by the encoder and by a decode bound for
   a 32-bit host alike. *)
let fits_word32 v = v >= -0x8000_0000 && v <= 0x7FFF_FFFF

let unfit_word v = malformed "integer %d does not fit a 32-bit word" v

(* Container format: the "DRIMG2" magic, a version byte and the body,
   under a CRC-32 trailer, so a flipped bit anywhere in transit is
   caught at decode instead of silently restoring garbage state. *)
let magic = "DRIMG2"
let format_version = 2

(* ------------------------------------------------------------ encode *)

(* A container is written in two walks of the image: the first sums its
   exact size, the second writes it into bytes of that size, and the
   CRC-32 trailer is computed over them where they lie. Each writer
   takes the position to write at and returns the next one. *)

let word_bytes l = l.word_bits / 8

let rec ty_size : Dr_lang.Ast.ty -> int = function
  | Tint | Tfloat | Tbool | Tstr -> 1
  | Tarr t | Tptr t -> 1 + ty_size t

let value_size w (v : Value.t) =
  match v with
  | Vint _ | Varr _ -> 1 + w
  | Vfloat _ -> 9
  | Vbool _ -> 2
  | Vstr s -> 1 + w + String.length s
  | Vptr _ -> 1 + (2 * w)
  | Vnull -> 1

let values_size w values =
  let n = ref 0 in
  for i = 0 to Array.length values - 1 do
    n := !n + value_size w (Array.unsafe_get values i)
  done;
  !n

let rec records_size w acc = function
  | [] -> acc
  | (r : Image.record) :: rest ->
    records_size w (acc + (2 * w) + values_size w r.values) rest

let rec blocks_size w acc = function
  | [] -> acc
  | (_, (b : Image.heap_block)) :: rest ->
    blocks_size w
      (acc + (2 * w) + ty_size b.elem_ty + values_size w b.cells)
      rest

(* magic, version, module name, two counts, the records, the blocks and
   the trailer *)
let container_size l (image : Image.t) =
  let w = word_bytes l in
  blocks_size w
    (records_size w
       (String.length magic + 1 + (3 * w) + String.length image.source_module)
       image.records)
    image.heap
  + 4

let put_u8 b pos v =
  Bytes.set b pos (Char.unsafe_chr v);
  pos + 1

let put_int l b pos v =
  if l.word_bits = 32 then begin
    if not (fits_word32 v) then unfit_word v;
    if l.big then Bytes.set_int32_be b pos (Int32.of_int v)
    else Bytes.set_int32_le b pos (Int32.of_int v);
    pos + 4
  end
  else begin
    if l.big then Bytes.set_int64_be b pos (Int64.of_int v)
    else Bytes.set_int64_le b pos (Int64.of_int v);
    pos + 8
  end

let put_string l b pos s =
  let n = String.length s in
  let pos = put_int l b pos n in
  Bytes.blit_string s 0 b pos n;
  pos + n

let rec put_ty b pos (ty : Dr_lang.Ast.ty) =
  match ty with
  | Tint -> put_u8 b pos 0
  | Tfloat -> put_u8 b pos 1
  | Tbool -> put_u8 b pos 2
  | Tstr -> put_u8 b pos 3
  | Tarr t -> put_ty b (put_u8 b pos 4) t
  | Tptr t -> put_ty b (put_u8 b pos 5) t

let put_value l b pos (v : Value.t) =
  match v with
  | Vint i -> put_int l b (put_u8 b pos tag_int) i
  | Vfloat f ->
    let pos = put_u8 b pos tag_float in
    if l.big then Bytes.set_int64_be b pos (Int64.bits_of_float f)
    else Bytes.set_int64_le b pos (Int64.bits_of_float f);
    pos + 8
  | Vbool v -> put_u8 b (put_u8 b pos tag_bool) (if v then 1 else 0)
  | Vstr s -> put_string l b (put_u8 b pos tag_str) s
  | Varr block -> put_int l b (put_u8 b pos tag_arr) block
  | Vptr (block, off) ->
    put_int l b (put_int l b (put_u8 b pos tag_ptr) block) off
  | Vnull -> put_u8 b pos tag_null

let put_values l b pos values =
  let pos = ref (put_int l b pos (Array.length values)) in
  for i = 0 to Array.length values - 1 do
    pos := put_value l b !pos (Array.unsafe_get values i)
  done;
  !pos

let rec put_records l b pos = function
  | [] -> pos
  | (r : Image.record) :: rest ->
    put_records l b (put_values l b (put_int l b pos r.location) r.values) rest

let rec put_blocks l b pos = function
  | [] -> pos
  | (id, (block : Image.heap_block)) :: rest ->
    let pos = put_ty b (put_int l b pos id) block.elem_ty in
    put_blocks l b (put_values l b pos block.cells) rest

let encode_with l (image : Image.t) =
  let n = container_size l image in
  let b = Bytes.create n in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  let pos = put_u8 b (String.length magic) format_version in
  let pos = put_string l b pos image.source_module in
  let pos = put_int l b pos (List.length image.records) in
  let pos = put_records l b pos image.records in
  let pos = put_int l b pos (List.length image.heap) in
  let len = put_blocks l b pos image.heap in
  assert (len = n - 4);
  Bytes.set_int32_be b len (Bin_util.crc32_sub b ~off:0 ~len);
  b

(* ------------------------------------------------------------ decode *)

(* The decoder reads through a {!Bin_util.reader} cursor bounded before
   the container's trailer, with its own loads: a read past the bound
   raises [Bin_util.Truncated]. *)

let[@inline] need (r : Bin_util.reader) n =
  if r.limit - r.pos < n then raise Bin_util.Truncated

let get_u8 (r : Bin_util.reader) =
  need r 1;
  let v = Char.code (Bytes.unsafe_get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

(* Each load is converted to an [int] where it is made: an [int32] or
   [int64] that crossed a function boundary would be boxed. *)
let get_int l (r : Bin_util.reader) =
  if l.word_bits = 32 then begin
    need r 4;
    let v =
      if l.big then Int32.to_int (Bytes.get_int32_be r.data r.pos)
      else Int32.to_int (Bytes.get_int32_le r.data r.pos)
    in
    r.pos <- r.pos + 4;
    v
  end
  else begin
    need r 8;
    let v =
      if l.big then Int64.to_int (Bytes.get_int64_be r.data r.pos)
      else Int64.to_int (Bytes.get_int64_le r.data r.pos)
    in
    r.pos <- r.pos + 8;
    v
  end

let get_float l (r : Bin_util.reader) =
  need r 8;
  let v =
    if l.big then Int64.float_of_bits (Bytes.get_int64_be r.data r.pos)
    else Int64.float_of_bits (Bytes.get_int64_le r.data r.pos)
  in
  r.pos <- r.pos + 8;
  v

let get_string l (r : Bin_util.reader) =
  let n = get_int l r in
  if n < 0 || n > r.limit - r.pos then malformed "bad string length %d" n;
  let s = Bytes.sub_string r.data r.pos n in
  r.pos <- r.pos + n;
  s

let rec get_ty r : Dr_lang.Ast.ty =
  match get_u8 r with
  | 0 -> Tint
  | 1 -> Tfloat
  | 2 -> Tbool
  | 3 -> Tstr
  | 4 -> Tarr (get_ty r)
  | 5 -> Tptr (get_ty r)
  | tag -> malformed "unknown type tag %d" tag

(* Ints in [0, Value.small_int_limit) come from [Value]'s table, read
   inline: a call into [Value] would not be. *)
let[@inline] vint n =
  if n >= 0 && n < Value.small_int_limit then
    Array.unsafe_get Value.small_ints n
  else Value.Vint n

let get_value l r : Value.t =
  let tag = get_u8 r in
  if tag = tag_int then vint (get_int l r)
  else if tag = tag_float then Vfloat (get_float l r)
  else if tag = tag_bool then Vbool (get_u8 r <> 0)
  else if tag = tag_str then Vstr (get_string l r)
  else if tag = tag_arr then Varr (get_int l r)
  else if tag = tag_ptr then begin
    let block = get_int l r in
    let off = get_int l r in
    Vptr (block, off)
  end
  else if tag = tag_null then Vnull
  else malformed "unknown value tag %d" tag

(* The one image decoder. [src] is the layout the body was written in
   (a move's is the abstract one), [dst] the layout of the host the
   image is bound for: the decode is the whole translation. Bound for a
   32-bit word, an integer read from a 64-bit body that does not fit is
   refused with the encoder's message, but only once the whole body has
   parsed: a malformed container reports its own fault first, as it
   would if it were decoded as written and re-encoded for the
   destination.
   Every count is checked against the bytes left before anything is
   allocated for it (every value takes at least one byte), so a forged
   count cannot make the decoder allocate more than the container could
   hold. *)
let decode_body ~src ~dst (r : Bin_util.reader) : Image.t =
  let narrow = src.word_bits = 64 && dst.word_bits = 32 in
  let unfit = ref None in
  let note v =
    if narrow && Option.is_none !unfit && not (fits_word32 v) then
      unfit := Some v
  in
  let int () =
    let v = get_int src r in
    note v;
    v
  in
  let count what limit =
    let n = int () in
    if n < 0 || n > limit || n > r.limit - r.pos then malformed what n;
    n
  in
  let value =
    if not narrow then fun () -> get_value src r
    else fun () ->
      let v = get_value src r in
      (match v with
      | Vint i | Varr i -> note i
      | Vptr (block, off) ->
        note block;
        note off
      | Vfloat _ | Vbool _ | Vstr _ | Vnull -> ());
      v
  in
  let values n =
    let a = Array.make n Value.Vnull in
    for i = 0 to n - 1 do
      Array.unsafe_set a i (value ())
    done;
    a
  in
  let source_module = get_string src r in
  let n_records = count "bad record count %d" 1_000_000 in
  let records =
    List.init n_records (fun _ ->
        let location = int () in
        let n = count "bad value count %d" 1_000_000 in
        { Image.location; values = values n })
  in
  let n_blocks = count "bad heap block count %d" 1_000_000 in
  let heap =
    List.init n_blocks (fun _ ->
        let id = int () in
        let elem_ty = get_ty r in
        let n = count "bad block length %d" 10_000_000 in
        (id, { Image.elem_ty; cells = values n }))
  in
  if r.limit <> r.pos then malformed "%d trailing bytes" (r.limit - r.pos);
  Option.iter unfit_word !unfit;
  Image.make ~source_module ~records ~heap

(* The container is checked where it lies: the magic, the CRC-32
   trailer over every byte before it, then a cursor bounded before the
   trailer and positioned past the magic, so the body is parsed without
   being copied out first. *)
let decode_with ~src ~dst data : Image.t =
  let ml = String.length magic in
  let n = Bytes.length data in
  if n < ml || not (String.equal (Bytes.sub_string data 0 ml) magic) then
    malformed "bad magic %S" (Bytes.sub_string data 0 (min ml n));
  let len = n - 4 in
  if len < ml + 1 then malformed "truncated image container";
  let stored = Bytes.get_int32_be data len in
  let computed = Bin_util.crc32_sub data ~off:0 ~len in
  if not (Int32.equal stored computed) then
    malformed "checksum mismatch (stored %08lx, computed %08lx)" stored
      computed;
  let r = { Bin_util.data; pos = ml; limit = len } in
  let version = get_u8 r in
  if version <> format_version then
    malformed "unsupported image version %d" version;
  decode_body ~src ~dst r

let guarded f =
  try Ok (f ()) with
  | Malformed message -> Error message
  | Bin_util.Truncated -> Error "truncated image"

let encode_abstract image = encode_with abstract_layout image

let decode_abstract data =
  guarded (fun () ->
      decode_with ~src:abstract_layout ~dst:abstract_layout data)

let decode_for arch data =
  guarded (fun () ->
      decode_with ~src:abstract_layout ~dst:(layout_of_arch arch) data)

(* The journal's fields are written into a [Buffer] in the abstract
   layout, a value by the container's own writer, and read back through
   the decoder's readers. *)
module Wire = struct
  let write_int buf v = Bin_util.write_i64 buf ~big:true v
  let read_int r = get_int abstract_layout r

  let write_string buf s =
    write_int buf (String.length s);
    Bin_util.write_bytes buf s

  let read_string r = get_string abstract_layout r

  let write_value buf v =
    let b = Bytes.create (value_size 8 v) in
    ignore (put_value abstract_layout b 0 v : int);
    Buffer.add_bytes buf b

  let read_value r = get_value abstract_layout r

  let guarded f = guarded f
end

module Native = struct
  let encode arch image =
    guarded (fun () -> encode_with (layout_of_arch arch) image)

  let receive ~src ~dst data =
    guarded (fun () ->
        decode_with ~src:(layout_of_arch src) ~dst:(layout_of_arch dst) data)

  let decode arch data = receive ~src:arch ~dst:arch data

  let translate ~src ~dst data =
    Result.bind (receive ~src ~dst data) (encode dst)
end
