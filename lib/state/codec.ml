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

(* Type tags for heap block element types. *)
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

(* Container format: the "DRIMG2" magic, a version byte and the body,
   under a CRC-32 trailer, so a flipped bit anywhere in transit is
   caught at decode instead of silently restoring garbage state. *)
let magic = "DRIMG2"
let format_version = 2

(* The body is written into a pooled buffer, copied out once into the
   container and checksummed there ([Bin_util.sealed]). *)
let encode_with layout (image : Image.t) =
  Bin_util.with_buffer @@ fun buf ->
  Bin_util.write_bytes buf magic;
  Bin_util.write_u8 buf format_version;
  write_string layout buf image.source_module;
  write_int layout buf (List.length image.records);
  List.iter
    (fun (r : Image.record) ->
      write_int layout buf r.location;
      write_int layout buf (List.length r.values);
      List.iter (write_value layout buf) r.values)
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

(* The one image decoder. [src] is the layout the body was written in,
   [dst] the layout of the host the image is bound for; they differ
   only when a migration crosses architectures, and then the decode is
   the whole translation (the receiver makes right). Bound for a 32-bit
   word, an integer read from a 64-bit body that does not fit is
   refused with the encoder's message, but only once the whole body
   has parsed: a malformed container reports its own fault first, as it
   would if it were decoded on its source host and re-encoded for the
   destination. Every count is checked against the bytes left before
   anything is allocated for it (every value takes at least one byte),
   so a forged count cannot make the decoder allocate more than the
   container could hold. *)
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
  let value =
    if not narrow then fun () -> read_value src r
    else fun () ->
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
        { Image.location; values })
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

(* The container is checked where it lies: the magic, the CRC-32
   trailer over every byte before it, then a reader bounded before the
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

let encode_abstract image = encode_with abstract_layout image

let decode_abstract data =
  guarded (fun () ->
      decode_with ~src:abstract_layout ~dst:abstract_layout data)

module Wire = struct
  let write_int buf v = write_int abstract_layout buf v
  let read_int r = read_int abstract_layout r
  let write_string buf s = write_string abstract_layout buf s
  let read_string r = read_string abstract_layout r
  let write_value buf v = write_value abstract_layout buf v
  let read_value r = read_value abstract_layout r

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
