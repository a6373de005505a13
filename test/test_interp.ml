module Machine = Dr_interp.Machine
module Value = Dr_state.Value

let wrap body = Printf.sprintf "module t;\nproc main() {\n%s\n}" body

let check_prints name expected source =
  Alcotest.(check (list string)) name expected (Support.prints_of source)

let expect_crash name fragment source =
  let sio = Support.script_io () in
  let machine = Machine.create ~io:sio.io (Support.parse source) in
  Machine.run ~max_steps:1_000_000 machine;
  match Machine.status machine with
  | Machine.Crashed message ->
    let contains needle haystack =
      let n = String.length needle and h = String.length haystack in
      let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
      n = 0 || go 0
    in
    if not (contains fragment message) then
      Alcotest.failf "%s: crash %S lacks %S" name message fragment
  | status -> Alcotest.failf "%s: expected crash, got %a" name Machine.pp_status status

let test_arithmetic () =
  check_prints "ints" [ "17" ] (wrap "print(1 + 2 * 8);");
  check_prints "division" [ "3" ] (wrap "print(7 / 2);");
  check_prints "modulo" [ "1" ] (wrap "print(7 % 2);");
  check_prints "floats" [ "2.5" ] (wrap "print(1.25 * 2.0);");
  check_prints "neg" [ "-4" ] (wrap "print(-(2 + 2));");
  (* floats follow IEEE 754: division by zero yields infinities, not a
     crash (only integer division faults) *)
  check_prints "float infinities" [ "inf -inf" ]
    (wrap "print(1.0 / 0.0, \" \", -1.0 / 0.0);");
  check_prints "conversions" [ "3 3" ]
    (wrap {|print(int(3.9), " ", float(3));|})

let test_comparisons_and_bools () =
  check_prints "lt" [ "true false" ] (wrap {|print(1 < 2, " ", 2.0 < 1.0);|});
  check_prints "strings" [ "true" ] (wrap {|print("abc" < "abd");|});
  check_prints "eq" [ "true false" ] (wrap {|print(3 == 3, " ", "a" == "b");|});
  check_prints "not" [ "false" ] (wrap "print(!true);")

let test_short_circuit () =
  (* the right operand of && must not run when the left is false:
     division by zero would crash *)
  check_prints "and skips rhs" [ "false" ]
    (wrap "var x: int = 0; print(x != 0 && 10 / x > 1);");
  check_prints "or skips rhs" [ "true" ]
    (wrap "var x: int = 0; print(x == 0 || 10 / x > 1);")

let test_strings () =
  check_prints "concat" [ "ab" ] (wrap {|print("a" ^ "b");|});
  check_prints "str builtin" [ "x=5|2.5|true" ]
    (wrap {|print("x=" ^ str(5) ^ "|" ^ str(2.5) ^ "|" ^ str(true));|})

let test_control_flow () =
  check_prints "if else" [ "else" ]
    (wrap {|if (1 > 2) { print("then"); } else { print("else"); }|});
  check_prints "while" [ "0"; "1"; "2" ]
    (wrap "var i: int; while (i < 3) { print(i); i = i + 1; }");
  check_prints "nested loops" [ "4" ]
    (wrap
       "var c: int; var i: int; var j: int;\n\
        i = 0; while (i < 2) { j = 0; while (j < 2) { c = c + 1; j = j + 1; } i = i + 1; }\n\
        print(c);")

let test_goto () =
  check_prints "goto forward" [ "a"; "c" ]
    (wrap {|print("a"); goto L; print("b"); L: print("c");|});
  check_prints "goto into loop body" [ "5"; "6"; "7" ]
    (wrap
       "var i: int;\n\
        i = 5;\n\
        goto Inside;\n\
        while (i < 8) {\n\
        Inside: print(i);\n\
        i = i + 1;\n\
        }");
  check_prints "goto backward loop" [ "0"; "1"; "2" ]
    (wrap
       "var i: int;\n\
        L: if (i < 3) { print(i); i = i + 1; goto L; }")

let test_procedures () =
  check_prints "value return" [ "9" ]
    "module t;\nproc sq(x: int): int { return x * x; }\nproc main() { print(sq(3)); }";
  check_prints "ref out" [ "7" ]
    "module t;\nproc add(a: int, b: int, ref out: int) { out = a + b; }\nproc main() { var r: int; add(3, 4, r); print(r); }";
  check_prints "recursion" [ "120" ]
    "module t;\nproc fact(n: int): int { if (n <= 1) { return 1; } return n * fact(n - 1); }\nproc main() { print(fact(5)); }";
  check_prints "mutual recursion" [ "true false" ]
    "module t;\n\
     proc is_even(n: int): bool { if (n == 0) { return true; } return is_odd(n - 1); }\n\
     proc is_odd(n: int): bool { if (n == 0) { return false; } return is_even(n - 1); }\n\
     proc main() { print(is_even(10), \" \", is_even(7)); }";
  check_prints "ref threads through calls" [ "6" ]
    "module t;\n\
     proc inner(ref x: int) { x = x + 1; }\n\
     proc outer(ref x: int) { inner(x); inner(x); }\n\
     proc main() { var v: int = 4; outer(v); print(v); }"

let test_call_in_expressions () =
  check_prints "nested calls" [ "11" ]
    "module t;\nproc f(x: int): int { return x + 1; }\nproc main() { print(f(f(f(8)))); }";
  check_prints "calls in operands" [ "7" ]
    "module t;\nproc f(x: int): int { return x; }\nproc main() { print(f(3) + f(4)); }";
  check_prints "call in while condition" [ "0"; "1"; "2" ]
    "module t;\n\
     var i: int;\n\
     proc next(): int { i = i + 1; return i; }\n\
     proc main() { while (next() <= 3) { print(i - 1); } }"

let test_globals () =
  check_prints "global init and update" [ "10"; "11" ]
    "module t;\nvar g: int = 10;\nproc bump() { g = g + 1; }\nproc main() { print(g); bump(); print(g); }"

let test_heap () =
  check_prints "array basics" [ "3 30" ]
    (wrap
       "var a: int[] = alloc_int(3); a[0] = 10; a[1] = 20; a[2] = a[0] + a[1];\n\
        print(len(a), \" \", a[2]);");
  check_prints "zero initialised" [ "0 0  false" ]
    (wrap
       {|var a: int[] = alloc_int(1); var f: float[] = alloc_float(1);
         var s: string[] = alloc_str(1); var b: bool[] = alloc_bool(1);
         print(a[0], " ", f[0], " ", s[0], " ", b[0]);|});
  check_prints "pointers" [ "20 0" ]
    (wrap
       "var a: int[] = alloc_int(3); a[1] = 20;\n\
        var p: int* = &a[1];\n\
        print(p[0], \" \", 0);")

let test_pointer_arithmetic () =
  check_prints "ptr add" [ "30" ]
    (wrap
       "var a: int[] = alloc_int(4); a[3] = 30;\n\
        var p: int* = &a[1];\n\
        p = p + 2;\n\
        print(p[0]);");
  check_prints "ptr writes alias array" [ "77" ]
    (wrap
       "var a: int[] = alloc_int(2);\n\
        var p: int* = &a[0];\n\
        p[1] = 77;\n\
        print(a[1]);")

let test_runtime_errors () =
  expect_crash "div by zero" "division by zero" (wrap "print(1 / 0);");
  expect_crash "mod by zero" "modulo by zero" (wrap "print(1 % 0);");
  expect_crash "index oob" "out of bounds"
    (wrap "var a: int[] = alloc_int(2); print(a[5]);");
  expect_crash "negative index" "out of bounds"
    (wrap "var a: int[] = alloc_int(2); print(a[0 - 1]);");
  expect_crash "null deref" "null" (wrap "var a: int[]; print(a[0]);");
  expect_crash "ptr oob" "out of bounds"
    (wrap "var a: int[] = alloc_int(2); var p: int* = &a[0]; print(p[5]);");
  expect_crash "negative alloc" "negative allocation"
    (wrap "var a: int[] = alloc_int(0 - 3);");
  expect_crash "stack overflow" "stack overflow"
    "module t;\nproc f() { f(); }\nproc main() { f(); }";
  expect_crash "missing return" "without returning"
    "module t;\nproc f(): int { if (false) { return 1; } }\nproc main() { print(f()); }"

let test_sleep_sets_status () =
  let sio = Support.script_io () in
  let machine = Machine.create ~io:sio.io (Support.parse (wrap "sleep(3); print(\"x\");")) in
  Machine.run ~max_steps:1000 machine;
  (match Machine.status machine with
  | Machine.Sleeping d -> Alcotest.(check (float 1e-9)) "duration" 3.0 d
  | s -> Alcotest.failf "expected sleeping, got %a" Machine.pp_status s);
  Machine.set_ready machine;
  Machine.run ~max_steps:1000 machine;
  Alcotest.(check (list string)) "resumed after sleep" [ "x" ] (Support.printed sio)

let test_blocking_read () =
  let sio = Support.script_io () in
  let machine =
    Machine.create ~io:sio.io
      (Support.parse (wrap {|var x: int; mh_read("in", x); print(x);|}))
  in
  Machine.run ~max_steps:1000 machine;
  (match Machine.status machine with
  | Machine.Blocked_read "in" -> ()
  | s -> Alcotest.failf "expected blocked, got %a" Machine.pp_status s);
  Support.feed sio "in" (Value.Vint 42);
  Machine.set_ready machine;
  Machine.run ~max_steps:1000 machine;
  Alcotest.(check (list string)) "read value" [ "42" ] (Support.printed sio)

let test_query_and_write () =
  let sio = Support.script_io ~feeds:[ ("in", [ Value.Vint 5 ]) ] () in
  let machine =
    Machine.create ~io:sio.io
      (Support.parse
         (wrap
            {|var x: int;
              if (mh_query("in")) { mh_read("in", x); mh_write("out", x * 2); }
              print(mh_query("in"));|}))
  in
  Machine.run ~max_steps:1000 machine;
  Alcotest.(check (list string)) "query now empty" [ "false" ] (Support.printed sio);
  Alcotest.(check (list (pair string Support.value))) "written"
    [ ("out", Value.Vint 10) ] (Support.written sio)

let test_signal_handler () =
  let source =
    "module t;\n\
     var hits: int = 0;\n\
     proc on_sig() { hits = hits + 1; }\n\
     proc main() {\n\
     var i: int;\n\
     signal(\"on_sig\");\n\
     while (i < 10) { i = i + 1; }\n\
     print(hits);\n\
     }"
  in
  let sio = Support.script_io () in
  let machine = Machine.create ~io:sio.io (Support.parse source) in
  (* no signal: handler never runs *)
  Machine.run ~max_steps:10_000 machine;
  Alcotest.(check (list string)) "no signal" [ "0" ] (Support.printed sio);
  (* with a signal mid-run *)
  let sio2 = Support.script_io () in
  let m2 = Machine.create ~io:sio2.io (Support.parse source) in
  Machine.run ~max_steps:10 m2;
  Machine.deliver_signal m2;
  Machine.run ~max_steps:10_000 m2;
  Alcotest.(check (list string)) "one signal" [ "1" ] (Support.printed sio2)

let test_signal_without_handler_ignored () =
  let sio = Support.script_io () in
  let machine =
    Machine.create ~io:sio.io
      (Support.parse (wrap "var i: int; while (i < 5) { i = i + 1; } print(i);"))
  in
  Machine.deliver_signal machine;
  Machine.run ~max_steps:10_000 machine;
  Alcotest.(check (list string)) "runs unharmed" [ "5" ] (Support.printed sio);
  Alcotest.(check bool) "halted" true (Machine.status machine = Machine.Halted)

let test_instr_count_and_stack () =
  let source =
    "module t;\nproc f(n: int) { if (n > 0) { f(n - 1); } else { sleep(100); } }\nproc main() { f(3); }"
  in
  let sio = Support.script_io () in
  let machine = Machine.create ~io:sio.io (Support.parse source) in
  Machine.run ~max_steps:10_000 machine;
  Alcotest.(check bool) "sleeping deep" true
    (match Machine.status machine with Machine.Sleeping _ -> true | _ -> false);
  Alcotest.(check int) "stack depth" 5 (Machine.stack_depth machine);
  Alcotest.(check (list string)) "stack procs" [ "f"; "f"; "f"; "f"; "main" ]
    (Machine.stack_procs machine);
  Alcotest.(check bool) "instructions counted" true (Machine.instr_count machine >= 9)

let test_clone_independent () =
  let source = wrap "var i: int; while (i < 100) { i = i + 1; } print(i);" in
  let sio = Support.script_io () in
  let machine = Machine.create ~io:sio.io (Support.parse source) in
  Machine.run ~max_steps:50 machine;
  let sio2 = Support.script_io () in
  let copy = Machine.clone machine ~io:sio2.io in
  (* both finish independently with the same output *)
  Machine.run ~max_steps:100_000 machine;
  Machine.run ~max_steps:100_000 copy;
  Alcotest.(check (list string)) "original" [ "100" ] (Support.printed sio);
  Alcotest.(check (list string)) "clone" [ "100" ] (Support.printed sio2)

let test_clone_preserves_ref_aliasing () =
  let source =
    "module t;\n\
     proc bump(ref x: int) { x = x + 1; sleep(50); x = x + 1; print(x); }\n\
     proc main() { var v: int = 0; bump(v); print(v); }"
  in
  let sio = Support.script_io () in
  let machine = Machine.create ~io:sio.io (Support.parse source) in
  Machine.run ~max_steps:10_000 machine;
  (* machine is asleep inside bump; clone and finish the clone *)
  let sio2 = Support.script_io () in
  let copy = Machine.clone machine ~io:sio2.io in
  Machine.set_ready copy;
  Machine.run ~max_steps:10_000 copy;
  (* if aliasing survived the clone, bump's writes reach main's v: 2 2 *)
  Alcotest.(check (list string)) "aliasing preserved" [ "2"; "2" ]
    (Support.printed sio2);
  (* a chain: main's v passes by reference through outer to inner, a
     global reaches inner by reference too, and outer's result is
     awaited in main; the values are beyond the shared small ints *)
  let source =
    "module t;\n\
     var g: int = 7000000;\n\
     proc inner(ref a: int, ref b: int) {\n\
    \  a = a + 1; b = b + 10; sleep(50); a = a + 1; b = b + 10;\n\
    \  print(a, \" \", b);\n\
     }\n\
     proc outer(ref x: int): int { inner(x, g); print(x); return x + 1; }\n\
     proc main() {\n\
    \  var v: int = 5000000; var w: int;\n\
    \  w = outer(v); print(v, \" \", g, \" \", w);\n\
     }"
  in
  let expected = [ "5000002 7000020"; "5000002"; "5000002 7000020 5000003" ] in
  let sio = Support.script_io () in
  let machine = Machine.create ~io:sio.io (Support.parse source) in
  Machine.run ~max_steps:10_000 machine;
  Alcotest.(check (list string)) "asleep inside inner" [ "inner"; "outer"; "main" ]
    (Machine.stack_procs machine);
  let sio2 = Support.script_io () in
  let copy = Machine.clone machine ~io:sio2.io in
  Machine.set_ready copy;
  Machine.run ~max_steps:10_000 copy;
  Alcotest.(check (list string)) "the clone's writes reach its own v and g"
    expected (Support.printed sio2);
  Alcotest.(check (option Support.value)) "the clone's g" (Some (Value.Vint 7000020))
    (Machine.read_global copy "g");
  Alcotest.(check (option Support.value)) "the original's g, untouched"
    (Some (Value.Vint 7000010))
    (Machine.read_global machine "g");
  Machine.set_ready machine;
  Machine.run ~max_steps:10_000 machine;
  Alcotest.(check (list string)) "the original runs on from its own slots"
    expected (Support.printed sio)

let test_state_size_grows () =
  let small = Machine.create ~io:(Dr_interp.Io_intf.null ()) (Support.parse (wrap "skip;")) in
  let big =
    Machine.create ~io:(Dr_interp.Io_intf.null ())
      (Support.parse (wrap "var a: int[] = alloc_int(1000); sleep(1);"))
  in
  Machine.run ~max_steps:10_000 big;
  Alcotest.(check bool) "heap grows state" true
    (Machine.state_size big > Machine.state_size small)

(* mh_encode hands the image to the io and keeps no copy: once the
   receiver lets go of it, the image is garbage while the machine that
   built it is still alive. *)
let test_encode_keeps_no_image () =
  let source =
    {|module t;
var a: int[];
proc main() {
  var x: int;
  a = alloc_int(64);
  x = 7;
  mh_capture(1, x);
  mh_encode();
}|}
  in
  let received = Weak.create 1 in
  let io =
    { (Dr_interp.Io_intf.null ()) with
      io_encode = (fun image -> Weak.set received 0 (Some image)) }
  in
  let m = Machine.create ~io (Support.parse source) in
  Machine.run ~max_steps:1000 m;
  Alcotest.(check bool) "an image was divulged" true (Weak.check received 0);
  Gc.full_major ();
  Alcotest.(check bool) "the machine holds no copy" false
    (Weak.check received 0);
  Alcotest.(check int) "the machine is still alive" 1
    (Machine.captures_taken m)

(* A delivered int lives in its slot unboxed: once the io lets go of
   the box it handed over, nothing in the machine keeps the box alive,
   while the local and the global it was copied to still read its
   value. *)
let test_slot_keeps_no_boxed_int () =
  let source =
    {|module t;
var g: int;
proc main() {
  var t: int;
  mh_read("in", t);
  g = t;
  mh_read("in", t);
}|}
  in
  let box = Weak.create 1 in
  let handed = ref false in
  let io =
    { (Dr_interp.Io_intf.null ()) with
      io_read =
        (fun _ ->
          if !handed then None
          else begin
            handed := true;
            let v = Value.Vint (Sys.opaque_identity 5_000_001) in
            Weak.set box 0 (Some v);
            Some v
          end) }
  in
  let m = Machine.create ~io (Support.parse source) in
  Machine.run ~max_steps:1000 m;
  Alcotest.(check string) "blocked on the second read" "blocked-read(in)"
    (Fmt.str "%a" Machine.pp_status (Machine.status m));
  Gc.full_major ();
  Alcotest.(check bool) "the box is collected" false (Weak.check box 0);
  Alcotest.(check (option Support.value)) "read_local t" (Some (Value.Vint 5000001))
    (Machine.read_local m "t");
  Alcotest.(check (option Support.value)) "read_global g" (Some (Value.Vint 5000001))
    (Machine.read_global m "g")

(* Retiring a removed instance's machine drops its stack and heap but
   no counter, stamp or global the bus's history reads. *)
let test_retire_keeps_counters () =
  let source =
    {|module t;
var g: int = 5;
var a: int[];
proc main() {
  var loc: int; var x: int;
  a = alloc_int(4);
  x = 7;
  mh_capture(3, x);
  mh_encode();
  x = 0;
  mh_decode();
  mh_restore(loc, x);
  sleep(10);
}|}
  in
  let sio = Support.script_io () in
  let m = Machine.create ~io:sio.io (Support.parse source) in
  Machine.run ~max_steps:1000 m;
  (match sio.Support.divulged with
  | image :: _ -> Machine.feed_image m image
  | [] -> Alcotest.fail "no image divulged");
  Machine.run ~max_steps:1000 m;
  let readings m =
    ( (Machine.instr_count m, Machine.captures_taken m),
      (Machine.restores_applied m, Machine.frames_rebuilt m),
      Machine.restore_done_at m,
      (Machine.read_global m "g", Machine.read_global m "a") )
  in
  let before = readings m in
  Alcotest.(check bool) "restored, with a stack and a heap" true
    (Machine.restores_applied m > 0
    && Machine.stack_depth m > 0
    && Machine.heap_size m > 0);
  Machine.retire m;
  Alcotest.(check int) "stack dropped" 0 (Machine.stack_depth m);
  Alcotest.(check int) "heap dropped" 0 (Machine.heap_size m);
  Alcotest.(check bool) "counters, stamp and globals kept" true
    (readings m = before)

let test_no_main () =
  let machine =
    Machine.create ~io:(Dr_interp.Io_intf.null ()) (Support.parse "module t;\nproc f() { }")
  in
  match Machine.status machine with
  | Machine.Crashed _ -> ()
  | s -> Alcotest.failf "expected crash, got %a" Machine.pp_status s

let test_restore_empty_buffer_crashes () =
  let sio = Support.script_io () in
  let machine =
    Machine.create ~io:sio.io
      (Support.parse (wrap "var loc: int; var x: int; mh_restore(loc, x);"))
  in
  Machine.run ~max_steps:1000 machine;
  match Machine.status machine with
  | Machine.Crashed message ->
    Alcotest.(check bool) "mentions empty buffer" true
      (let contains needle haystack =
         let n = String.length needle and h = String.length haystack in
         let rec go i =
           i + n <= h && (String.sub haystack i n = needle || go (i + 1))
         in
         n = 0 || go 0
       in
       contains "empty" message)
  | s -> Alcotest.failf "expected crash, got %a" Machine.pp_status s

let test_encode_without_capture_is_empty_image () =
  let sio = Support.script_io () in
  let machine =
    Machine.create ~io:sio.io (Support.parse (wrap "mh_encode();"))
  in
  Machine.run ~max_steps:1000 machine;
  match sio.divulged with
  | [ image ] ->
    Alcotest.(check int) "zero records" 0 (Dr_state.Image.depth image)
  | images -> Alcotest.failf "expected one image, got %d" (List.length images)

let test_capture_then_restore_within_one_machine () =
  (* mh_capture fills the capture buffer; mh_encode flushes it; a
     machine can be fed its own image back and restore from it *)
  let source =
    wrap
      {|var loc: int; var x: int; var y: float;
        x = 7; y = 2.5;
        mh_capture(3, x, y);
        mh_encode();
        x = 0; y = 0.0;
        mh_decode();
        mh_restore(loc, x, y);
        print(loc, " ", x, " ", y);|}
  in
  let sio = Support.script_io () in
  let machine = Machine.create ~io:sio.io (Support.parse source) in
  Machine.run ~max_steps:1000 machine;
  (match Machine.status machine with
  | Machine.Blocked_decode -> ()
  | s -> Alcotest.failf "expected blocked-decode, got %a" Machine.pp_status s);
  (match sio.divulged with
  | [ image ] -> Machine.feed_image machine image
  | _ -> Alcotest.fail "no image");
  Machine.run ~max_steps:1000 machine;
  Alcotest.(check (list string)) "round-tripped" [ "3 7 2.5" ]
    (Support.printed sio)

let test_double_signal_single_handler_run () =
  let source =
    "module t;\n\
     var hits: int = 0;\n\
     proc on_sig() { hits = hits + 1; }\n\
     proc main() {\n\
     var i: int;\n\
     signal(\"on_sig\");\n\
     while (i < 20) { i = i + 1; }\n\
     print(hits);\n\
     }"
  in
  let sio = Support.script_io () in
  let machine = Machine.create ~io:sio.io (Support.parse source) in
  Machine.run ~max_steps:8 machine;
  Machine.deliver_signal machine;
  Machine.deliver_signal machine;  (* coalesces, like a Unix signal *)
  Machine.run ~max_steps:10_000 machine;
  Alcotest.(check (list string)) "one handler run" [ "1" ] (Support.printed sio)

let () =
  Alcotest.run "interp"
    [ ( "expressions",
        [ Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "comparisons" `Quick test_comparisons_and_bools;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "strings" `Quick test_strings ] );
      ( "control",
        [ Alcotest.test_case "if/while" `Quick test_control_flow;
          Alcotest.test_case "goto" `Quick test_goto ] );
      ( "procedures",
        [ Alcotest.test_case "calls" `Quick test_procedures;
          Alcotest.test_case "calls in expressions" `Quick test_call_in_expressions;
          Alcotest.test_case "globals" `Quick test_globals ] );
      ( "heap",
        [ Alcotest.test_case "arrays" `Quick test_heap;
          Alcotest.test_case "pointer arithmetic" `Quick test_pointer_arithmetic ] );
      ( "failures",
        [ Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
          Alcotest.test_case "no main" `Quick test_no_main ] );
      ( "scheduling",
        [ Alcotest.test_case "sleep" `Quick test_sleep_sets_status;
          Alcotest.test_case "blocking read" `Quick test_blocking_read;
          Alcotest.test_case "query/write" `Quick test_query_and_write;
          Alcotest.test_case "signal handler" `Quick test_signal_handler;
          Alcotest.test_case "signal ignored without handler" `Quick
            test_signal_without_handler_ignored;
          Alcotest.test_case "instr count and stack" `Quick
            test_instr_count_and_stack ] );
      ( "machine state",
        [ Alcotest.test_case "clone independent" `Quick test_clone_independent;
          Alcotest.test_case "clone ref aliasing" `Quick
            test_clone_preserves_ref_aliasing;
          Alcotest.test_case "state size" `Quick test_state_size_grows;
          Alcotest.test_case "encode keeps no image" `Quick
            test_encode_keeps_no_image;
          Alcotest.test_case "a slot keeps no boxed int" `Quick
            test_slot_keeps_no_boxed_int;
          Alcotest.test_case "retire keeps counters" `Quick
            test_retire_keeps_counters ] );
      ( "capture runtime",
        [ Alcotest.test_case "restore on empty buffer" `Quick
            test_restore_empty_buffer_crashes;
          Alcotest.test_case "encode without capture" `Quick
            test_encode_without_capture_is_empty_image;
          Alcotest.test_case "self round-trip" `Quick
            test_capture_then_restore_within_one_machine;
          Alcotest.test_case "signals coalesce" `Quick
            test_double_signal_single_handler_run ] ) ]
