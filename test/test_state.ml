module Value = Dr_state.Value
module Arch = Dr_state.Arch
module Bin_util = Dr_state.Bin_util

let test_value_equal () =
  Alcotest.(check bool) "ints" true (Value.equal (Vint 3) (Vint 3));
  Alcotest.(check bool) "ints differ" false (Value.equal (Vint 3) (Vint 4));
  Alcotest.(check bool) "cross kind" false (Value.equal (Vint 0) (Vfloat 0.0));
  Alcotest.(check bool) "nan equals nan" true
    (Value.equal (Vfloat Float.nan) (Vfloat Float.nan));
  Alcotest.(check bool) "ptr" true (Value.equal (Vptr (1, 2)) (Vptr (1, 2)));
  Alcotest.(check bool) "ptr offset" false (Value.equal (Vptr (1, 2)) (Vptr (1, 3)));
  Alcotest.(check bool) "null" true (Value.equal Vnull Vnull)

let test_value_pp () =
  let shows v expected = Alcotest.(check string) expected expected (Value.to_string v) in
  shows (Value.Vint 42) "42";
  shows (Value.Vbool true) "true";
  shows (Value.Vstr "hi") "\"hi\"";
  shows (Value.Varr 3) "<arr #3>";
  shows (Value.Vptr (3, 1)) "<ptr #3+1>";
  shows Value.Vnull "null"

let test_value_defaults_and_types () =
  let module A = Dr_lang.Ast in
  List.iter
    (fun (ty, expected) ->
      Alcotest.(check bool) "default inhabits type" true
        (Value.matches_ty (Value.default_of_ty ty) ty);
      Alcotest.(check bool) "expected default" true
        (Value.equal (Value.default_of_ty ty) expected))
    [ (A.Tint, Value.Vint 0); (A.Tfloat, Vfloat 0.0); (A.Tbool, Vbool false);
      (A.Tstr, Vstr ""); (A.Tarr A.Tint, Vnull); (A.Tptr A.Tfloat, Vnull) ];
  Alcotest.(check bool) "null inhabits arrays" true
    (Value.matches_ty Value.Vnull (A.Tarr A.Tint));
  Alcotest.(check bool) "int does not inhabit float" false
    (Value.matches_ty (Value.Vint 1) A.Tfloat);
  Alcotest.(check bool) "arr inhabits arr" true
    (Value.matches_ty (Value.Varr 0) (A.Tarr A.Tstr))

let test_arch_lookup () =
  Alcotest.(check bool) "x86_64 found" true (Arch.by_name "x86_64" <> None);
  Alcotest.(check bool) "unknown" true (Arch.by_name "pdp11" = None);
  Alcotest.(check int) "four architectures" 4 (List.length Arch.all);
  Alcotest.(check bool) "names unique" true
    (let names = List.map (fun a -> a.Arch.arch_name) Arch.all in
     List.length (List.sort_uniq String.compare names) = List.length names)

let test_arch_int_fits () =
  Alcotest.(check bool) "small fits 32" true (Arch.int_fits Arch.sparc32 1000);
  Alcotest.(check bool) "max int32 fits" true
    (Arch.int_fits Arch.arm32 (Int32.to_int Int32.max_int));
  Alcotest.(check bool) "min int32 fits" true
    (Arch.int_fits Arch.arm32 (Int32.to_int Int32.min_int));
  Alcotest.(check bool) "overflow rejected" false
    (Arch.int_fits Arch.sparc32 (Int32.to_int Int32.max_int + 1));
  Alcotest.(check bool) "underflow rejected" false
    (Arch.int_fits Arch.sparc32 (Int32.to_int Int32.min_int - 1));
  Alcotest.(check bool) "64-bit takes anything" true
    (Arch.int_fits Arch.m68k max_int)

let test_arch_pp () =
  Alcotest.(check string) "rendering" "sparc32 (big-endian, 32-bit)"
    (Fmt.str "%a" Arch.pp Arch.sparc32)

(* ------------------------------------------------- integrity kernels *)

(* Bit-at-a-time CRC-32 (reflected polynomial 0xEDB88320): the
   definition the table-driven kernel must agree with. *)
let crc32_reference data ~off ~len =
  let crc = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    crc := !crc lxor Char.code (Bytes.get data i);
    for _ = 1 to 8 do
      crc :=
        if !crc land 1 = 1 then (!crc lsr 1) lxor 0xEDB88320 else !crc lsr 1
    done
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let test_crc32_known_answers () =
  Alcotest.(check int32) "check value" 0xCBF43926l
    (Bin_util.crc32 (Bytes.of_string "123456789"));
  Alcotest.(check int32) "empty input" 0l (Bin_util.crc32 Bytes.empty);
  Alcotest.(check int32) "sub-range equals the copied range" 0xCBF43926l
    (Bin_util.crc32_sub (Bytes.of_string "xx123456789yyy") ~off:2 ~len:9)

let bytes_gen max_len =
  QCheck2.Gen.(
    map Bytes.of_string (string_size ~gen:char (int_range 0 max_len)))

(* every (off, len) of short buffers: lengths 0-17 on every alignment,
   both sides of the 8-byte step and its byte-wise tail *)
let prop_crc32_every_range =
  Support.qcheck ~count:200 "crc32_sub = bitwise reference, every range"
    (bytes_gen 40) (fun data ->
      let n = Bytes.length data in
      let ok = ref true in
      for off = 0 to n do
        for len = 0 to n - off do
          if
            not
              (Int32.equal
                 (Bin_util.crc32_sub data ~off ~len)
                 (crc32_reference data ~off ~len))
          then ok := false
        done
      done;
      !ok)

let prop_crc32_long_buffers =
  Support.qcheck ~count:100 "crc32 = bitwise reference, long buffers"
    (bytes_gen 5000) (fun data ->
      Int32.equal (Bin_util.crc32 data)
        (crc32_reference data ~off:0 ~len:(Bytes.length data)))

let test_crc32_sub_bounds () =
  let data = Bytes.make 16 'a' in
  List.iter
    (fun (off, len) ->
      match Bin_util.crc32_sub data ~off ~len with
      | _ -> Alcotest.failf "crc32_sub accepted off=%d len=%d" off len
      | exception Invalid_argument _ -> ())
    [ (-1, 4); (0, -1); (0, 17); (16, 1); (17, 0); (8, max_int) ];
  Alcotest.(check int32) "empty range at the end" 0l
    (Bin_util.crc32_sub data ~off:16 ~len:0)

let test_bounded_reader () =
  (* an 8-byte body followed by a 4-byte trailer *)
  let data = Bytes.create 12 in
  Bytes.set_int64_be data 0 42L;
  Bytes.set_int32_be data 8 7l;
  let r = Bin_util.reader ~len:8 data in
  Alcotest.(check int) "body readable" 42 (Bin_util.read_i64 r ~big:true);
  Alcotest.(check int) "nothing left before the bound" 0 (Bin_util.remaining r);
  (match Bin_util.read_i32 r ~big:true with
  | _ -> Alcotest.fail "read the trailer as body"
  | exception Bin_util.Truncated -> ());
  (match Bin_util.read_u8 r with
  | _ -> Alcotest.fail "read a trailer byte as body"
  | exception Bin_util.Truncated -> ());
  let r = Bin_util.reader ~len:8 data in
  (match Bin_util.read_bytes r 9 with
  | _ -> Alcotest.fail "read_bytes crossed the bound"
  | exception Bin_util.Truncated -> ());
  List.iter
    (fun len ->
      match Bin_util.reader ~len data with
      | _ -> Alcotest.failf "reader accepted len=%d" len
      | exception Invalid_argument _ -> ())
    [ -1; 13 ]

let () =
  Alcotest.run "state"
    [ ( "values",
        [ Alcotest.test_case "equality" `Quick test_value_equal;
          Alcotest.test_case "printing" `Quick test_value_pp;
          Alcotest.test_case "defaults and types" `Quick
            test_value_defaults_and_types ] );
      ( "architectures",
        [ Alcotest.test_case "lookup" `Quick test_arch_lookup;
          Alcotest.test_case "word fits" `Quick test_arch_int_fits;
          Alcotest.test_case "printing" `Quick test_arch_pp ] );
      ( "integrity kernels",
        [ Alcotest.test_case "crc32 known answers" `Quick
            test_crc32_known_answers;
          prop_crc32_every_range;
          prop_crc32_long_buffers;
          Alcotest.test_case "crc32_sub bounds" `Quick test_crc32_sub_bounds;
          Alcotest.test_case "bounded reader" `Quick test_bounded_reader ] ) ]
