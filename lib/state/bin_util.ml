exception Truncated

(* [limit] bounds every read: a container decoder stops at its CRC
   trailer without copying the body out first. *)
type reader = { data : bytes; mutable pos : int; limit : int }

let reader ?len data =
  let limit =
    match len with
    | None -> Bytes.length data
    | Some n ->
      if n < 0 || n > Bytes.length data then invalid_arg "Bin_util.reader";
      n
  in
  { data; pos = 0; limit }

let remaining r = r.limit - r.pos

let need r n = if remaining r < n then raise Truncated

let read_u8 r =
  need r 1;
  let v = Char.code (Bytes.get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

let read_i32 r ~big =
  need r 4;
  let raw =
    if big then Bytes.get_int32_be r.data r.pos
    else Bytes.get_int32_le r.data r.pos
  in
  r.pos <- r.pos + 4;
  Int32.to_int raw

(* The conversion to [int] happens inside, next to the load: an [int64]
   that crosses a function boundary is boxed. *)
let read_i64 r ~big =
  need r 8;
  let v =
    if big then Int64.to_int (Bytes.get_int64_be r.data r.pos)
    else Int64.to_int (Bytes.get_int64_le r.data r.pos)
  in
  r.pos <- r.pos + 8;
  v

let read_bits64 r ~big =
  need r 8;
  let raw = if big then Bytes.get_int64_be r.data r.pos else Bytes.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  raw

let read_f64 r ~big = Int64.float_of_bits (read_bits64 r ~big)

let read_bytes r n =
  need r n;
  let s = Bytes.sub_string r.data r.pos n in
  r.pos <- r.pos + n;
  s

let write_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let write_i32 buf ~big v =
  let v32 = Int32.of_int v in
  if big then Buffer.add_int32_be buf v32 else Buffer.add_int32_le buf v32

let write_i64 buf ~big v =
  if big then Buffer.add_int64_be buf (Int64.of_int v)
  else Buffer.add_int64_le buf (Int64.of_int v)

let write_bits64 buf ~big v =
  if big then Buffer.add_int64_be buf v else Buffer.add_int64_le buf v

let write_f64 buf ~big v = write_bits64 buf ~big (Int64.bits_of_float v)

let write_bytes buf s = Buffer.add_string buf s

(* ------------------------------------------------------------- crc32 *)

(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
   trailer of the image containers and the checksum of every log frame.

   Slicing-by-8 over native ints: row k of the table gives a byte's
   contribution to the CRC once k more bytes have followed it, so one
   step folds eight input bytes (two 32-bit little-endian loads) with
   eight lookups and no allocation; a byte-wise loop handles the tail.
   The 8 x 256 table is built on first use, so a process that never
   checksums anything never pays for it. *)

let crc_table =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

(* Entry [b land 0xff] of row [k]: a masked byte plus a row offset always
   lies inside the 2048-entry table. *)
let[@inline] row t k b = Array.unsafe_get t ((k lsl 8) lor (b land 0xff))

let crc32_sub data ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length data - len then
    invalid_arg "Bin_util.crc32_sub";
  let t = Lazy.force crc_table in
  let crc = ref 0xFFFFFFFF in
  let i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    let one = !crc lxor Int32.to_int (Bytes.get_int32_le data !i) in
    let two = Int32.to_int (Bytes.get_int32_le data (!i + 4)) in
    crc :=
      row t 7 one lxor row t 6 (one lsr 8) lxor row t 5 (one lsr 16)
      lxor row t 4 (one lsr 24) lxor row t 3 two lxor row t 2 (two lsr 8)
      lxor row t 1 (two lsr 16) lxor row t 0 (two lsr 24);
    i := !i + 8
  done;
  let stop = off + len in
  while !i < stop do
    crc := row t 0 (!crc lxor Char.code (Bytes.get data !i)) lxor (!crc lsr 8);
    incr i
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let crc32 data = crc32_sub data ~off:0 ~len:(Bytes.length data)

(* ------------------------------------------------------- buffer pool *)

(* Small free-list of scratch buffers for the encode hot path: every
   capture/divulge on the migration path used to allocate a fresh
   [Buffer.t] per record. Buffers are cleared on take; oversized ones
   (a huge image inflates the backing store permanently) are dropped
   rather than retained. Encoding is single-threaded and non-reentrant
   in this codebase, so a plain list suffices. *)

let pool : Buffer.t list ref = ref []
let pool_capacity = 8
let pool_size = ref 0
let retain_limit = 1 lsl 16

let take_buffer () =
  match !pool with
  | buf :: rest ->
    pool := rest;
    decr pool_size;
    Buffer.clear buf;
    buf
  | [] -> Buffer.create 256

let return_buffer buf =
  if Buffer.length buf <= retain_limit && !pool_size < pool_capacity then begin
    pool := buf :: !pool;
    incr pool_size
  end

let with_buffer f =
  let buf = take_buffer () in
  match f buf with
  | v ->
    return_buffer buf;
    v
  | exception e ->
    return_buffer buf;
    raise e

let sealed buf =
  let n = Buffer.length buf in
  let out = Bytes.create (n + 4) in
  Buffer.blit buf 0 out 0 n;
  Bytes.set_int32_be out n (crc32_sub out ~off:0 ~len:n);
  out
