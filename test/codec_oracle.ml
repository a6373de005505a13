(* The image codec as it stood before the exact-size writer and the
   cursor decoder replaced it: the container built up in a pooled
   [Buffer] and copied out under its CRC, the body read back through one
   reader call per field, with the per-field readers and writers that
   [Dr_state.Bin_util] held for it. Kept only as the reference the codec
   tests compare [Dr_state.Codec] against; nothing else uses it. Its
   errors are [Dr_state.Codec]'s texts. *)

module Image = Dr_state.Image
module Value = Dr_state.Value

module Bin_util = struct
  include Dr_state.Bin_util

  let need r n = if remaining r < n then raise Truncated

  let read_i32 r ~big =
    need r 4;
    let raw =
      if big then Bytes.get_int32_be r.data r.pos
      else Bytes.get_int32_le r.data r.pos
    in
    r.pos <- r.pos + 4;
    Int32.to_int raw

  let read_i64 r ~big =
    need r 8;
    let v =
      if big then Int64.to_int (Bytes.get_int64_be r.data r.pos)
      else Int64.to_int (Bytes.get_int64_le r.data r.pos)
    in
    r.pos <- r.pos + 8;
    v

  let read_f64 r ~big =
    need r 8;
    let raw =
      if big then Bytes.get_int64_be r.data r.pos
      else Bytes.get_int64_le r.data r.pos
    in
    r.pos <- r.pos + 8;
    Int64.float_of_bits raw

  let read_bytes r n =
    need r n;
    let s = Bytes.sub_string r.data r.pos n in
    r.pos <- r.pos + n;
    s

  let write_i32 buf ~big v =
    let v32 = Int32.of_int v in
    if big then Buffer.add_int32_be buf v32 else Buffer.add_int32_le buf v32

  let write_f64 buf ~big v =
    let bits = Int64.bits_of_float v in
    if big then Buffer.add_int64_be buf bits else Buffer.add_int64_le buf bits
end

exception Malformed of string

let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

let tag_int = 0
let tag_float = 1
let tag_bool = 2
let tag_str = 3
let tag_arr = 4
let tag_ptr = 5
let tag_null = 6

let rec write_ty buf (ty : Dr_lang.Ast.ty) =
  match ty with
  | Tint -> Bin_util.write_u8 buf 0
  | Tfloat -> Bin_util.write_u8 buf 1
  | Tbool -> Bin_util.write_u8 buf 2
  | Tstr -> Bin_util.write_u8 buf 3
  | Tarr t ->
    Bin_util.write_u8 buf 4;
    write_ty buf t
  | Tptr t ->
    Bin_util.write_u8 buf 5;
    write_ty buf t

let rec read_ty r : Dr_lang.Ast.ty =
  match Bin_util.read_u8 r with
  | 0 -> Tint
  | 1 -> Tfloat
  | 2 -> Tbool
  | 3 -> Tstr
  | 4 -> Tarr (read_ty r)
  | 5 -> Tptr (read_ty r)
  | tag -> malformed "unknown type tag %d" tag

type layout = { big : bool; word_bits : int }

let abstract = { big = true; word_bits = 64 }

let of_arch (a : Dr_state.Arch.t) =
  { big = (a.endian = Dr_state.Arch.Big); word_bits = a.word_bits }

let fits_word32 v = v >= -0x8000_0000 && v <= 0x7FFF_FFFF

let unfit_word v = malformed "integer %d does not fit a 32-bit word" v

let write_int layout buf v =
  if layout.word_bits = 32 then begin
    if not (fits_word32 v) then unfit_word v;
    Bin_util.write_i32 buf ~big:layout.big v
  end
  else Bin_util.write_i64 buf ~big:layout.big v

let read_int layout r =
  if layout.word_bits = 32 then Bin_util.read_i32 r ~big:layout.big
  else Bin_util.read_i64 r ~big:layout.big

let write_string layout buf s =
  write_int layout buf (String.length s);
  Bin_util.write_bytes buf s

let read_string layout r =
  let n = read_int layout r in
  if n < 0 || n > Bin_util.remaining r then malformed "bad string length %d" n;
  Bin_util.read_bytes r n

let write_value layout buf (v : Value.t) =
  match v with
  | Vint i ->
    Bin_util.write_u8 buf tag_int;
    write_int layout buf i
  | Vfloat f ->
    Bin_util.write_u8 buf tag_float;
    Bin_util.write_f64 buf ~big:layout.big f
  | Vbool b ->
    Bin_util.write_u8 buf tag_bool;
    Bin_util.write_u8 buf (if b then 1 else 0)
  | Vstr s ->
    Bin_util.write_u8 buf tag_str;
    write_string layout buf s
  | Varr block ->
    Bin_util.write_u8 buf tag_arr;
    write_int layout buf block
  | Vptr (block, off) ->
    Bin_util.write_u8 buf tag_ptr;
    write_int layout buf block;
    write_int layout buf off
  | Vnull -> Bin_util.write_u8 buf tag_null

let read_value layout r : Value.t =
  let tag = Bin_util.read_u8 r in
  if tag = tag_int then Vint (read_int layout r)
  else if tag = tag_float then Vfloat (Bin_util.read_f64 r ~big:layout.big)
  else if tag = tag_bool then Vbool (Bin_util.read_u8 r <> 0)
  else if tag = tag_str then Vstr (read_string layout r)
  else if tag = tag_arr then Varr (read_int layout r)
  else if tag = tag_ptr then begin
    let block = read_int layout r in
    let off = read_int layout r in
    Vptr (block, off)
  end
  else if tag = tag_null then Vnull
  else malformed "unknown value tag %d" tag

let magic = "DRIMG2"
let format_version = 2

let encode_with layout (image : Image.t) =
  Bin_util.with_buffer @@ fun buf ->
  Bin_util.write_bytes buf magic;
  Bin_util.write_u8 buf format_version;
  write_string layout buf image.source_module;
  write_int layout buf (List.length image.records);
  List.iter
    (fun (r : Image.record) ->
      write_int layout buf r.location;
      write_int layout buf (Array.length r.values);
      Array.iter (write_value layout buf) r.values)
    image.records;
  write_int layout buf (List.length image.heap);
  List.iter
    (fun (id, (block : Image.heap_block)) ->
      write_int layout buf id;
      write_ty buf block.elem_ty;
      write_int layout buf (Array.length block.cells);
      Array.iter (write_value layout buf) block.cells)
    image.heap;
  Bin_util.sealed buf

let decode_body ~src ~dst r : Image.t =
  let narrow = src.word_bits = 64 && dst.word_bits = 32 in
  let unfit = ref None in
  let note v =
    if narrow && Option.is_none !unfit && not (fits_word32 v) then
      unfit := Some v
  in
  let int () =
    let v = read_int src r in
    note v;
    v
  in
  let count what limit =
    let n = int () in
    if n < 0 || n > limit || n > Bin_util.remaining r then malformed what n;
    n
  in
  let value () =
    let v = read_value src r in
    (match v with
    | Vint i | Varr i -> note i
    | Vptr (block, off) ->
      note block;
      note off
    | Vfloat _ | Vbool _ | Vstr _ | Vnull -> ());
    v
  in
  let source_module = read_string src r in
  let n_records = count "bad record count %d" 1_000_000 in
  let records =
    List.init n_records (fun _ ->
        let location = int () in
        let n_values = count "bad value count %d" 1_000_000 in
        let values = List.init n_values (fun _ -> value ()) in
        { Image.location; values = Array.of_list values })
  in
  let n_blocks = count "bad heap block count %d" 1_000_000 in
  let heap =
    List.init n_blocks (fun _ ->
        let id = int () in
        let elem_ty = read_ty r in
        let n = count "bad block length %d" 10_000_000 in
        (id, { Image.elem_ty; cells = Array.init n (fun _ -> value ()) }))
  in
  if Bin_util.remaining r <> 0 then
    malformed "%d trailing bytes" (Bin_util.remaining r);
  Option.iter unfit_word !unfit;
  Image.make ~source_module ~records ~heap

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
  let r = Bin_util.reader ~len data in
  ignore (Bin_util.read_bytes r ml);
  let version = Bin_util.read_u8 r in
  if version <> format_version then
    malformed "unsupported image version %d" version;
  decode_body ~src ~dst r

let guarded f =
  try Ok (f ()) with
  | Malformed message -> Error message
  | Bin_util.Truncated -> Error "truncated image"

let encode layout image = guarded (fun () -> encode_with layout image)

let decode ~src ~dst data = guarded (fun () -> decode_with ~src ~dst data)
