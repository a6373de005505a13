module Image = Dr_state.Image
module Codec = Dr_state.Codec
module Arch = Dr_state.Arch
module Value = Dr_state.Value
module Persist = Dr_reconfig.Persist
module Primitives = Dr_reconfig.Primitives
module Storage = Dr_wal.Storage
module Wal = Dr_wal.Wal

let sample_image =
  Image.make ~source_module:"compute"
    ~records:
      [ { Image.location = 4; values = [ Value.Vint 4; Vint 3; Vfloat 0.75; Vint 0 ] };
        { Image.location = 3; values = [ Value.Vint 4; Vint 4; Vfloat 0.75; Vint 0 ] };
        { Image.location = 1; values = [ Value.Vint 4; Vfloat 0.75 ] } ]
    ~heap:
      [ (0, { Image.elem_ty = Tint; cells = [| Value.Vint 1; Vint 2 |] });
        (3, { Image.elem_ty = Tarr Tint; cells = [| Value.Varr 0; Vnull |] }) ]

let test_abstract_roundtrip () =
  let bytes = Codec.encode_abstract sample_image in
  match Codec.decode_abstract bytes with
  | Ok decoded -> Alcotest.check Support.image "identical" sample_image decoded
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_abstract_deterministic () =
  let a = Codec.encode_abstract sample_image in
  let b = Codec.encode_abstract sample_image in
  Alcotest.(check bytes) "stable encoding" a b

let test_native_roundtrip_per_arch () =
  List.iter
    (fun arch ->
      match Codec.Native.encode arch sample_image with
      | Error e -> Alcotest.failf "%s: encode failed: %s" arch.Arch.arch_name e
      | Ok bytes -> (
        match Codec.Native.decode arch bytes with
        | Ok decoded ->
          Alcotest.check Support.image arch.Arch.arch_name sample_image decoded
        | Error e -> Alcotest.failf "%s: decode failed: %s" arch.Arch.arch_name e))
    Arch.all

let test_native_formats_differ () =
  let le = Result.get_ok (Codec.Native.encode Arch.x86_64 sample_image) in
  let be = Result.get_ok (Codec.Native.encode Arch.m68k sample_image) in
  Alcotest.(check bool) "little- and big-endian bytes differ" true (le <> be);
  let b32 = Result.get_ok (Codec.Native.encode Arch.arm32 sample_image) in
  Alcotest.(check bool) "32-bit image is smaller" true
    (Bytes.length b32 < Bytes.length le)

let test_translate_across_archs () =
  List.iter
    (fun (src, dst) ->
      let native_src = Result.get_ok (Codec.Native.encode src sample_image) in
      match Codec.Native.translate ~src ~dst native_src with
      | Error e ->
        Alcotest.failf "%s->%s: %s" src.Arch.arch_name dst.Arch.arch_name e
      | Ok native_dst -> (
        match Codec.Native.decode dst native_dst with
        | Ok decoded ->
          Alcotest.check Support.image
            (Printf.sprintf "%s->%s" src.Arch.arch_name dst.Arch.arch_name)
            sample_image decoded
        | Error e -> Alcotest.failf "decode after translate: %s" e))
    [ (Arch.x86_64, Arch.sparc32);
      (Arch.sparc32, Arch.x86_64);
      (Arch.arm32, Arch.m68k);
      (Arch.m68k, Arch.arm32) ]

let test_word_overflow_detected () =
  let big =
    Image.make ~source_module:"t"
      ~records:[ { Image.location = 1; values = [ Value.Vint 0x7FFFFFFFFF ] } ]
      ~heap:[]
  in
  (match Codec.Native.encode Arch.sparc32 big with
  | Error e ->
    Alcotest.(check bool) "mentions 32-bit" true
      (let contains needle haystack =
         let n = String.length needle and h = String.length haystack in
         let rec go i =
           i + n <= h && (String.sub haystack i n = needle || go (i + 1))
         in
         n = 0 || go 0
       in
       contains "32-bit" e)
  | Ok _ -> Alcotest.fail "expected overflow error");
  match Codec.Native.encode Arch.x86_64 big with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "64-bit should fit: %s" e

let test_malformed_inputs () =
  let expect_error name bytes =
    match Codec.decode_abstract bytes with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected decode error" name
  in
  expect_error "empty" (Bytes.create 0);
  expect_error "bad magic" (Bytes.of_string "XXXXXXXXXXXXXXXX");
  let valid = Codec.encode_abstract sample_image in
  expect_error "truncated" (Bytes.sub valid 0 (Bytes.length valid - 3));
  let extended = Bytes.cat valid (Bytes.of_string "junk") in
  expect_error "trailing bytes" extended;
  (* the retired containers: DRIMG1 (the body under its own magic, no
     version byte, no checksum) and version 3 (a metadata string
     between the version byte and the body), each well-formed *)
  let body = Bytes.sub valid 7 (Bytes.length valid - 7 - 4) in
  expect_error "DRIMG1 container" (Bytes.cat (Bytes.of_string "DRIMG1") body);
  let v3 =
    let module B = Dr_state.Bin_util in
    B.with_buffer @@ fun buf ->
    B.write_bytes buf "DRIMG2";
    B.write_u8 buf 3;
    Codec.Wire.write_string buf "meta";
    Buffer.add_bytes buf body;
    B.sealed buf
  in
  expect_error "version-3 container" v3;
  let corrupted = Bytes.copy valid in
  (* flip a tag byte deep inside the payload *)
  Bytes.set corrupted (Bytes.length corrupted - 9) '\xEE';
  match Codec.decode_abstract corrupted with
  | Error _ -> ()
  | Ok decoded ->
    (* a flipped value byte may still decode; it must then differ *)
    Alcotest.(check bool) "differs if decodable" false
      (Image.equal sample_image decoded)

let test_empty_image () =
  let empty = Image.empty ~source_module:"nil" in
  let bytes = Codec.encode_abstract empty in
  match Codec.decode_abstract bytes with
  | Ok decoded -> Alcotest.check Support.image "empty" empty decoded
  | Error e -> Alcotest.failf "empty image: %s" e

let test_image_push_pop () =
  let img = Image.empty ~source_module:"m" in
  let r1 = { Image.location = 1; values = [ Value.Vint 1 ] } in
  let r2 = { Image.location = 2; values = [ Value.Vint 2 ] } in
  let img = Image.push_record (Image.push_record img r1) r2 in
  Alcotest.(check int) "depth" 2 (Image.depth img);
  match Image.pop_record img with
  | Some (popped, rest) ->
    Alcotest.(check int) "LIFO pops last pushed" 2 popped.Image.location;
    (match Image.pop_record rest with
    | Some (popped2, rest2) ->
      Alcotest.(check int) "then first" 1 popped2.Image.location;
      Alcotest.(check bool) "empty after" true (Image.pop_record rest2 = None)
    | None -> Alcotest.fail "second pop")
  | None -> Alcotest.fail "first pop"

let test_gather_blocks_sharing_and_cycles () =
  let blocks =
    [ (0, { Image.elem_ty = Dr_lang.Ast.Tarr Tint; cells = [| Value.Varr 1; Varr 1 |] });
      (1, { Image.elem_ty = Dr_lang.Ast.Tarr Tint; cells = [| Value.Varr 0 |] });
      (2, { Image.elem_ty = Dr_lang.Ast.Tint; cells = [| Value.Vint 9 |] }) ]
  in
  let lookup id = List.assoc_opt id blocks in
  let gathered = Image.gather_blocks ~lookup [ Value.Varr 0 ] in
  Alcotest.(check (list int)) "cycle-safe, shared once, unreachable excluded"
    [ 0; 1 ] (List.map fst gathered);
  let via_ptr = Image.gather_blocks ~lookup [ Value.Vptr (2, 0) ] in
  Alcotest.(check (list int)) "pointers reach blocks" [ 2 ] (List.map fst via_ptr);
  let dangling = Image.gather_blocks ~lookup [ Value.Varr 99 ] in
  Alcotest.(check (list int)) "dangling ignored" [] (List.map fst dangling)

let test_byte_size_monotone () =
  let small = Image.empty ~source_module:"m" in
  let bigger =
    Image.push_record small { Image.location = 1; values = [ Value.Vstr "hello" ] }
  in
  Alcotest.(check bool) "adding a record grows the image" true
    (Image.byte_size bigger > Image.byte_size small)

let test_signed_zeros_differ () =
  (* [equal a b] implies [digest a = digest b], so a float's sign counts
     in a record slot and in a heap cell alike *)
  let in_record v =
    Image.make ~source_module:"m"
      ~records:[ { Image.location = 1; values = [ Value.Vint 1; Vfloat v ] } ]
      ~heap:[]
  in
  let in_cell v =
    Image.make ~source_module:"m" ~records:[]
      ~heap:
        [ ( 0,
            { Image.elem_ty = Dr_lang.Ast.Tfloat;
              cells = [| Value.Vfloat v |] } ) ]
  in
  List.iter
    (fun (where, make) ->
      let pos = make 0.0 and neg = make (-0.0) in
      Alcotest.(check bool) (where ^ ": unequal") false (Image.equal pos neg);
      Alcotest.(check bool) (where ^ ": digests differ") false
        (Int64.equal (Image.digest pos) (Image.digest neg));
      Alcotest.(check bool) (where ^ ": a copy is equal") true
        (Image.equal neg (make (-0.0))))
    [ ("record slot", in_record); ("heap cell", in_cell) ]

(* every single-byte flip anywhere in the container must fail decode
   loudly — magic damage as a format error, anything else via the CRC
   trailer; none may mis-parse into a different image *)
let flip_fuzz ~decode valid =
  for i = 0 to Bytes.length valid - 1 do
    let corrupted = Bytes.copy valid in
    Bytes.set corrupted i (Char.chr (Char.code (Bytes.get corrupted i) lxor 0x41));
    match decode corrupted with
    | Error _ -> ()
    | Ok decoded ->
      if not (Image.equal sample_image decoded) then
        Alcotest.failf "flip at byte %d decoded into a different image" i
      else Alcotest.failf "flip at byte %d went undetected" i
  done

(* a torn write at any prefix length must fail decode, never parse *)
let truncation_fuzz ~decode valid =
  for len = 0 to Bytes.length valid - 1 do
    match decode (Bytes.sub valid 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d bytes decoded" len
  done

let test_abstract_corruption_detected () =
  flip_fuzz ~decode:Codec.decode_abstract (Codec.encode_abstract sample_image)

let test_abstract_truncation_detected () =
  truncation_fuzz ~decode:Codec.decode_abstract
    (Codec.encode_abstract sample_image)

(* the same fuzz through a decode that narrows 64 → 32 bits and one that
   widens 32 → 64 *)
let cross_layouts = [ (Arch.x86_64, Arch.sparc32); (Arch.arm32, Arch.x86_64) ]

let test_cross_corruption_detected () =
  List.iter
    (fun (src, dst) ->
      flip_fuzz
        ~decode:(Codec.Native.receive ~src ~dst)
        (Result.get_ok (Codec.Native.encode src sample_image)))
    cross_layouts

let test_cross_truncation_detected () =
  List.iter
    (fun (src, dst) ->
      truncation_fuzz
        ~decode:(Codec.Native.receive ~src ~dst)
        (Result.get_ok (Codec.Native.encode src sample_image)))
    cross_layouts

(* A forged count must fail before the decoder allocates for it: this
   62-byte container carries a valid CRC and one cell, but declares a
   heap block of 9 999 999 cells. *)
let test_forged_block_length () =
  let forged =
    let module B = Dr_state.Bin_util in
    B.with_buffer @@ fun buf ->
    B.write_bytes buf "DRIMG2";
    B.write_u8 buf 2;
    Codec.Wire.write_string buf "m";
    Codec.Wire.write_int buf 0 (* records *);
    Codec.Wire.write_int buf 1 (* heap blocks *);
    Codec.Wire.write_int buf 0 (* block id *);
    B.write_u8 buf 0 (* element type int *);
    Codec.Wire.write_int buf 9_999_999 (* cells *);
    Codec.Wire.write_value buf (Value.Vint 1);
    B.sealed buf
  in
  Alcotest.(check int) "container size" 62 (Bytes.length forged);
  let before = Gc.allocated_bytes () in
  let result = Codec.decode_abstract forged in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check (result reject string))
    "refused" (Error "bad block length 9999999") (Result.map ignore result);
  if allocated >= 1_048_576.0 then
    Alcotest.failf "allocated %.0f bytes to refuse it" allocated

let prop_abstract_roundtrip =
  Support.qcheck ~count:300 "abstract codec round-trips" Gen.image (fun img ->
      match Codec.decode_abstract (Codec.encode_abstract img) with
      | Ok decoded -> Image.equal img decoded
      | Error e -> QCheck2.Test.fail_reportf "decode error: %s" e)

let prop_cross_arch_roundtrip =
  Support.qcheck ~count:200 "32-bit-safe images survive any arch pair"
    Gen.image_32bit (fun img ->
      List.for_all
        (fun (src, dst) ->
          match Codec.Native.encode src img with
          | Error _ -> false
          | Ok bytes -> (
            match Codec.Native.translate ~src ~dst bytes with
            | Error _ -> false
            | Ok out -> (
              match Codec.Native.decode dst out with
              | Ok decoded -> Image.equal img decoded
              | Error _ -> false)))
        [ (Arch.x86_64, Arch.sparc32); (Arch.sparc32, Arch.arm32) ])

(* The one-pass decode against the three steps it replaces, written
   out: decode on the source host, encode for the destination, decode
   that. Over every pair of architectures (a 32-bit source only for an
   image that fits it), on images with and without integers past 32
   bits, and with one body byte optionally overwritten under a
   recomputed CRC, so a malformed body reaches the parser and its error
   must win over an unfit integer exactly as it does in the reference.
   Image, digest and byte size must agree, or both sides must fail with
   the same text. *)
let reference ~src ~dst bytes =
  match Codec.Native.decode src bytes with
  | Error _ as e -> e
  | Ok image -> (
    match Codec.Native.encode dst image with
    | Error _ as e -> e
    | Ok out -> Codec.Native.decode dst out)

let reseal bytes =
  let len = Bytes.length bytes - 4 in
  Bytes.set_int32_be bytes len (Dr_state.Bin_util.crc32_sub bytes ~off:0 ~len)

let prop_receive_matches_reference =
  let gen =
    QCheck2.Gen.(
      pair (oneof [ Gen.image; Gen.image_32bit ]) (opt (pair nat char)))
  in
  Support.qcheck ~count:300 "one-pass decode matches the reference" gen
    (fun (img, patch) ->
      List.for_all
        (fun src ->
          match Codec.Native.encode src img with
          | Error e -> QCheck2.Test.fail_reportf "encode: %s" e
          | Ok bytes ->
            (match patch with
            | Some (pos, c) ->
              (* past the magic and version, before the trailer *)
              let body = Bytes.length bytes - 11 in
              Bytes.set bytes (7 + (pos mod body)) c;
              reseal bytes
            | None -> ());
            List.for_all
              (fun dst ->
                let pair =
                  Printf.sprintf "%s->%s" src.Arch.arch_name dst.Arch.arch_name
                in
                match
                  ( Codec.Native.receive ~src ~dst bytes,
                    reference ~src ~dst bytes )
                with
                | Ok a, Ok b ->
                  Image.equal a b
                  && Int64.equal (Image.digest a) (Image.digest b)
                  && Image.byte_size a = Image.byte_size b
                  || QCheck2.Test.fail_reportf "%s: images or digests differ"
                       pair
                | Error a, Error b ->
                  String.equal a b
                  || QCheck2.Test.fail_reportf "%s: %S against %S" pair a b
                | Ok _, Error e ->
                  QCheck2.Test.fail_reportf "%s: only the reference failed: %s"
                    pair e
                | Error e, Ok _ ->
                  QCheck2.Test.fail_reportf "%s: only receive failed: %s"
                    pair e)
              Arch.all)
        (* the 64-bit encoders accept every image; a 32-bit source
           needs one that fits *)
        (List.filter
           (fun (a : Arch.t) ->
             a.word_bits = 64 || Result.is_ok (Codec.Native.encode a img))
           Arch.all))

(* -------------------------------------------------------------- pins *)

(* Byte-identity pins. Images frozen to disk and write-ahead logs written
   by earlier builds must keep loading, so the container, digest and
   log-frame bytes of one fixed image are pinned as literals. The image
   exercises every value tag and every type tag; a second image, which
   differs from it in two slots and one heap block, pins the digest
   too. Any change to an encoder, the CRC-32 kernel or the digest that
   moves a single byte fails here. *)

let pin_image =
  Image.make ~source_module:"pin"
    ~records:
      [ { Image.location = 2;
          values = [ Value.Vint (-7); Vfloat 1.5; Vbool true; Vstr "ab" ] };
        { Image.location = 5;
          values = [ Value.Varr 3; Vptr (4, 1); Vnull; Vint 0x12345678 ] } ]
    ~heap:
      [ (3, { Image.elem_ty = Tarr Tint; cells = [| Value.Vnull |] });
        ( 4,
          { Image.elem_ty = Tptr Tfloat;
            cells = [| Value.Vbool false; Vstr "" |] } ) ]

let pin_second =
  Image.make ~source_module:"pin"
    ~records:
      [ { Image.location = 2;
          values = [ Value.Vint 0; Vfloat 1.5; Vbool false; Vstr "ab" ] };
        { Image.location = 5;
          values = [ Value.Varr 3; Vptr (4, 1); Vnull; Vint 0x12345678 ] } ]
    ~heap:[ (3, { Image.elem_ty = Tarr Tint; cells = [| Value.Vnull |] }) ]

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

(* the abstract layout is big-endian 64-bit, so m68k shares its bytes *)
let pin_abstract_hex =
  "4452494d473202000000000000000370696e0000000000000002000000000000\
   0002000000000000000400fffffffffffffff9013ff800000000000002010300\
   0000000000000261620000000000000005000000000000000404000000000000\
   0003050000000000000004000000000000000106000000000012345678000000\
   0000000002000000000000000304000000000000000001060000000000000004\
   050100000000000000020200030000000000000000880d315c"

let pin_native_hex =
  [ ( "x86_64",
      "4452494d473202030000000000000070696e0200000000000000020000000000\
       0000040000000000000000f9ffffffffffffff01000000000000f83f02010302\
       0000000000000061620500000000000000040000000000000004030000000000\
       0000050400000000000000010000000000000006007856341200000000020000\
       0000000000030000000000000004000100000000000000060400000000000000\
       050102000000000000000200030000000000000000ad07b3da" );
    ( "sparc32",
      "4452494d4732020000000370696e00000002000000020000000400fffffff901\
       3ff8000000000000020103000000026162000000050000000404000000030500\
       0000040000000106001234567800000002000000030400000000010600000004\
       050100000002020003000000005b18b6f4" );
    ( "arm32",
      "4452494d4732020300000070696e02000000020000000400000000f9ffffff01\
       000000000000f83f020103020000006162050000000400000004030000000504\
       0000000100000006007856341202000000030000000400010000000604000000\
       05010200000002000300000000a13694a9" );
    ("m68k", pin_abstract_hex) ]

let test_pin_containers () =
  Alcotest.(check string) "abstract DRIMG2" pin_abstract_hex
    (hex (Codec.encode_abstract pin_image));
  List.iter
    (fun arch ->
      let expected = List.assoc arch.Arch.arch_name pin_native_hex in
      Alcotest.(check string) arch.Arch.arch_name expected
        (hex (Result.get_ok (Codec.Native.encode arch pin_image))))
    Arch.all

let test_pin_digest () =
  Alcotest.(check int64) "image digest" 0x4c25dfc8063294a8L
    (Image.digest pin_image);
  Alcotest.(check int64) "second image digest" 0xfee891ccb201ac9aL
    (Image.digest pin_second)

let test_pin_wal_frames () =
  let cap =
    { Primitives.cap_instance = "c"; cap_module = "pin"; cap_host = "hostB";
      cap_spec = None; cap_ifaces = [ "in"; "out" ];
      cap_out_routes = [ (("c", "out"), ("d", "in")) ]; cap_in_routes = [] }
  in
  let record =
    Persist.Entry
      { sid = 3; entry = Persist.Divulged { d_cap = cap; d_image = pin_image } }
  in
  let storage = Storage.storage_of_mem (Storage.memory ()) in
  let wal = Result.get_ok (Wal.create storage) in
  ignore
    (Wal.append wal ~kind:(Persist.kind_of record) (Persist.encode record)
      : int);
  let blob storage name = hex (Result.get_ok (storage.Storage.st_read name)) in
  Alcotest.(check string) "segment holding one Divulged record"
    "00000149b894ee17000000000000000102000000000000000308000000000000\
     000163000000000000000370696e0000000000000005686f7374420000000000\
     000000020000000000000002696e00000000000000036f757400000000000000\
     0100000000000000016300000000000000036f75740000000000000001640000\
     000000000002696e000000000000000000000000000000b94452494d47320200\
     0000000000000370696e00000000000000020000000000000002000000000000\
     000400fffffffffffffff9013ff8000000000000020103000000000000000261\
     6200000000000000050000000000000004040000000000000003050000000000\
     0000040000000000000001060000000000123456780000000000000002000000\
     0000000003040000000000000000010600000000000000040501000000000000\
     00020200030000000000000000880d315c"
    (blob storage "seg-000000000001.wal");
  Alcotest.(check string) "manifest"
    "445257414c4d46310000000000000001e76ab081"
    (blob storage "MANIFEST");
  let storage = Storage.storage_of_mem (Storage.memory ()) in
  let wal = Result.get_ok (Wal.create storage) in
  ignore (Wal.append wal ~kind:1 (Bytes.of_string "x") : int);
  Wal.checkpoint ~state:(Bytes.of_string "snapshot") wal;
  Alcotest.(check string) "checkpoint blob"
    "000000082c4d1535736e617073686f74"
    (blob storage "ckpt-000000000002")

let () =
  Alcotest.run "codec"
    [ ( "abstract",
        [ Alcotest.test_case "roundtrip" `Quick test_abstract_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_abstract_deterministic;
          Alcotest.test_case "empty image" `Quick test_empty_image;
          Alcotest.test_case "malformed" `Quick test_malformed_inputs;
          Alcotest.test_case "bit-flip fuzz" `Quick
            test_abstract_corruption_detected;
          Alcotest.test_case "truncation fuzz" `Quick
            test_abstract_truncation_detected;
          Alcotest.test_case "forged block length" `Quick
            test_forged_block_length ] );
      ( "native",
        [ Alcotest.test_case "per-arch roundtrip" `Quick
            test_native_roundtrip_per_arch;
          Alcotest.test_case "formats differ" `Quick test_native_formats_differ;
          Alcotest.test_case "translate across archs" `Quick
            test_translate_across_archs;
          Alcotest.test_case "word overflow" `Quick test_word_overflow_detected;
          Alcotest.test_case "bit-flip fuzz across layouts" `Quick
            test_cross_corruption_detected;
          Alcotest.test_case "truncation fuzz across layouts" `Quick
            test_cross_truncation_detected ] );
      ( "image",
        [ Alcotest.test_case "push/pop LIFO" `Quick test_image_push_pop;
          Alcotest.test_case "gather blocks" `Quick
            test_gather_blocks_sharing_and_cycles;
          Alcotest.test_case "byte size" `Quick test_byte_size_monotone;
          Alcotest.test_case "signed zeros differ" `Quick
            test_signed_zeros_differ ] );
      (* a group name longer than "properties" widens the printed name
         column and truncates the longest property's name *)
      ( "pins",
        [ Alcotest.test_case "DRIMG2 abstract and native" `Quick
            test_pin_containers;
          Alcotest.test_case "image digest" `Quick test_pin_digest;
          Alcotest.test_case "WAL frame, manifest, checkpoint" `Quick
            test_pin_wal_frames ] );
      ( "properties",
        [ prop_abstract_roundtrip; prop_cross_arch_roundtrip;
          prop_receive_matches_reference ] ) ]
