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

let write_int layout buf v =
  if layout.word_bits = 32 then begin
    if not (v >= Int32.to_int Int32.min_int && v <= Int32.to_int Int32.max_int)
    then malformed "integer %d does not fit a 32-bit word" v;
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

(* Container format. Version 2 ("DRIMG2") wraps the body in a version
   byte and a CRC-32 trailer, so a flipped bit anywhere in transit is
   caught at decode instead of silently restoring garbage state.
   Version 3 is version 2 plus an opaque metadata string (a metrics
   snapshot, provenance, ...) between the version byte and the body —
   emitted only when the caller attaches one, so meta-less encodes stay
   byte-identical to version 2. Version 1 ("DRIMG1", no version byte,
   no checksum) is still accepted on decode — images frozen to disk by
   older builds keep loading. *)
let magic = "DRIMG2"
let magic_v1 = "DRIMG1"
let format_version = 2
let format_version_meta = 3

(* The body is written into a pooled buffer, copied out once into the
   container and checksummed there ([Bin_util.sealed]). *)
let encode_with ?meta layout (image : Image.t) =
  Bin_util.with_buffer @@ fun buf ->
  Bin_util.write_bytes buf magic;
  (match meta with
  | None -> Bin_util.write_u8 buf format_version
  | Some m ->
    Bin_util.write_u8 buf format_version_meta;
    write_string layout buf m);
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

let decode_body layout r : Image.t =
  let source_module = read_string layout r in
  let n_records = read_int layout r in
  if n_records < 0 || n_records > 1_000_000 then
    malformed "bad record count %d" n_records;
  let records =
    List.init n_records (fun _ ->
        let location = read_int layout r in
        let n_values = read_int layout r in
        if n_values < 0 || n_values > 1_000_000 then
          malformed "bad value count %d" n_values;
        let values = List.init n_values (fun _ -> read_value layout r) in
        { Image.location; values })
  in
  let n_blocks = read_int layout r in
  if n_blocks < 0 || n_blocks > 1_000_000 then
    malformed "bad heap block count %d" n_blocks;
  let heap =
    List.init n_blocks (fun _ ->
        let id = read_int layout r in
        let elem_ty = read_ty r in
        let n = read_int layout r in
        if n < 0 || n > 10_000_000 then malformed "bad block length %d" n;
        let cells = Array.init n (fun _ -> read_value layout r) in
        (id, { Image.elem_ty; cells }))
  in
  if Bin_util.remaining r <> 0 then
    malformed "%d trailing bytes" (Bin_util.remaining r);
  Image.make ~source_module ~records ~heap

let starts_with data prefix =
  Bytes.length data >= String.length prefix
  && String.equal (Bytes.sub_string data 0 (String.length prefix)) prefix

(* A sealed container is checked where it lies: the CRC-32 trailer over
   every byte before it, then a reader bounded before the trailer and
   positioned past the magic, so the body is parsed without being copied
   out first. *)
let open_sealed ~magic_len ~truncated ~mismatch data =
  let len = Bytes.length data - 4 in
  if len < magic_len + 1 then malformed "%s" truncated;
  let stored = Bytes.get_int32_be data len in
  let computed = Bin_util.crc32_sub data ~off:0 ~len in
  if not (Int32.equal stored computed) then
    malformed "%s (stored %08lx, computed %08lx)" mismatch stored computed;
  let r = Bin_util.reader ~len data in
  ignore (Bin_util.read_bytes r magic_len);
  r

let decode_with_full layout data : Image.t * string option =
  let ml = String.length magic in
  if starts_with data magic then begin
    let r =
      open_sealed ~magic_len:ml ~truncated:"truncated image container"
        ~mismatch:"checksum mismatch" data
    in
    let version = Bin_util.read_u8 r in
    let meta =
      if version = format_version then None
      else if version = format_version_meta then Some (read_string layout r)
      else malformed "unsupported image version %d" version
    in
    (decode_body layout r, meta)
  end
  else if starts_with data magic_v1 then begin
    let r = Bin_util.reader data in
    ignore (Bin_util.read_bytes r ml);
    (decode_body layout r, None)
  end
  else
    malformed "bad magic %S"
      (Bytes.sub_string data 0 (min ml (Bytes.length data)))

let decode_with layout data : Image.t = fst (decode_with_full layout data)

let guarded f =
  try Ok (f ()) with
  | Malformed message -> Error message
  | Bin_util.Truncated -> Error "truncated image"

let encode_abstract ?meta image = encode_with ?meta abstract_layout image

let decode_abstract data = guarded (fun () -> decode_with abstract_layout data)

let decode_abstract_full data =
  guarded (fun () -> decode_with_full abstract_layout data)

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

  let decode arch data =
    guarded (fun () -> decode_with (layout_of_arch arch) data)

  let translate ~src ~dst data =
    match decode src data with
    | Error _ as e -> e
    | Ok image -> encode dst image

  let same_layout a b =
    let la = layout_of_arch a and lb = layout_of_arch b in
    la.big = lb.big && la.word_bits = lb.word_bits

  (* Zero-copy fast path for same-architecture moves: when the two
     layouts agree byte-for-byte the encoded container needs no
     translation, so the bytes ship as-is — no decode to an abstract
     value tree, no re-encode. Corruption is still caught: the receiver
     decodes (CRC check included) before restoring. *)
  let recode ~src ~dst data =
    if same_layout src dst then Ok data else translate ~src ~dst data
end

(* ------------------------------------------------- delta containers *)

(* "DRIMGD1": the delta-image container. Always the abstract layout (a
   delta crosses the bus like a full abstract image would), wrapped in
   the same CRC-32 trailer as "DRIMG2". The referenced base is
   identified by digest; the decoder only parses — resolving the base
   is the caller's job (restore path, recovery replay). *)
let delta_magic = "DRIMGD1"
let delta_version = 1

let encode_delta (d : Image.delta) =
  let layout = abstract_layout in
  Bin_util.with_buffer @@ fun buf ->
  Bin_util.write_bytes buf delta_magic;
  Bin_util.write_u8 buf delta_version;
  write_string layout buf d.Image.d_source_module;
  Bin_util.write_bits64 buf ~big:layout.big d.Image.d_base_digest;
  write_int layout buf d.Image.d_record_count;
  write_int layout buf (List.length d.Image.d_slots);
  List.iter
    (fun (ri, vi, v) ->
      write_int layout buf ri;
      write_int layout buf vi;
      write_value layout buf v)
    d.Image.d_slots;
  write_int layout buf (List.length d.Image.d_heap_new);
  List.iter
    (fun (id, (block : Image.heap_block)) ->
      write_int layout buf id;
      write_ty buf block.elem_ty;
      write_int layout buf (Array.length block.cells);
      Array.iter (write_value layout buf) block.cells)
    d.Image.d_heap_new;
  write_int layout buf (List.length d.Image.d_heap_keep);
  List.iter (write_int layout buf) d.Image.d_heap_keep;
  Bin_util.sealed buf

let decode_delta_exn data : Image.delta =
  let layout = abstract_layout in
  let ml = String.length delta_magic in
  if not (starts_with data delta_magic) then
    malformed "bad delta magic %S"
      (Bytes.sub_string data 0 (min ml (Bytes.length data)));
  let r =
    open_sealed ~magic_len:ml ~truncated:"truncated delta container"
      ~mismatch:"delta checksum mismatch" data
  in
  let version = Bin_util.read_u8 r in
  if version <> delta_version then
    malformed "unsupported delta version %d" version;
  let d_source_module = read_string layout r in
  let d_base_digest = Bin_util.read_bits64 r ~big:layout.big in
  let d_record_count = read_int layout r in
  if d_record_count < 0 || d_record_count > 1_000_000 then
    malformed "bad delta record count %d" d_record_count;
  let n_slots = read_int layout r in
  if n_slots < 0 || n_slots > 1_000_000 then
    malformed "bad delta slot count %d" n_slots;
  let d_slots =
    List.init n_slots (fun _ ->
        let ri = read_int layout r in
        let vi = read_int layout r in
        let v = read_value layout r in
        (ri, vi, v))
  in
  let n_new = read_int layout r in
  if n_new < 0 || n_new > 1_000_000 then
    malformed "bad delta heap block count %d" n_new;
  let d_heap_new =
    List.init n_new (fun _ ->
        let id = read_int layout r in
        let elem_ty = read_ty r in
        let n = read_int layout r in
        if n < 0 || n > 10_000_000 then malformed "bad block length %d" n;
        let cells = Array.init n (fun _ -> read_value layout r) in
        (id, { Image.elem_ty; cells }))
  in
  let n_keep = read_int layout r in
  if n_keep < 0 || n_keep > 1_000_000 then
    malformed "bad delta keep count %d" n_keep;
  let d_heap_keep = List.init n_keep (fun _ -> read_int layout r) in
  if Bin_util.remaining r <> 0 then
    malformed "%d trailing bytes in delta" (Bin_util.remaining r);
  { Image.d_source_module; d_base_digest; d_record_count; d_slots;
    d_heap_new; d_heap_keep }

let decode_delta data = guarded (fun () -> decode_delta_exn data)
