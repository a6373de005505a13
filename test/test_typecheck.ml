let accepts name source =
  Alcotest.test_case name `Quick (fun () ->
      Support.typecheck_ok (Support.parse source))

let rejects name fragment source =
  Alcotest.test_case name `Quick (fun () ->
      let messages = Support.typecheck_errors (Support.parse source) in
      let contains needle haystack =
        let n = String.length needle and h = String.length haystack in
        let rec go i =
          i + n <= h && (String.sub haystack i n = needle || go (i + 1))
        in
        n = 0 || go 0
      in
      if not (List.exists (contains fragment) messages) then
        Alcotest.failf "no error mentioning %S among: %s" fragment
          (String.concat " | " messages))

let wrap body = Printf.sprintf "module t;\nproc main() {\n%s\n}" body

let accepted =
  [ accepts "arithmetic" (wrap "var x: int = 1 + 2 * 3; x = x % 4;");
    accepts "float arithmetic" (wrap "var f: float = 1.5 / 0.5;");
    accepts "conversions" (wrap "var f: float = float(3); var i: int = int(f);");
    accepts "bool ops" (wrap "var b: bool = true && (1 < 2) || !false;");
    accepts "string ops"
      (wrap {|var s: string = "a" ^ "b"; var b: bool = s == "ab";|});
    accepts "arrays"
      (wrap "var a: int[] = alloc_int(4); a[0] = 1; var n: int = len(a);");
    accepts "pointers"
      (wrap "var a: int[] = alloc_int(4); var p: int* = &a[1]; p[0] = 5; p = p + 1;");
    accepts "null comparisons"
      (wrap "var a: int[]; var b: bool = a == null; a = null;");
    accepts "labels and goto" (wrap "L: skip; goto L;");
    accepts "while condition" (wrap "var i: int; while (i < 10) { i = i + 1; }");
    accepts "sleep int and float" (wrap "sleep(1); sleep(0.5);");
    accepts "print anything" (wrap {|print("x=", 1, 2.0, true);|});
    accepts "ref param flow"
      "module t;\nproc f(ref out: int) { out = 3; }\nproc main() { var x: int; f(x); }";
    accepts "function call"
      "module t;\nproc sq(x: int): int { return x * x; }\nproc main() { var y: int = sq(3) + 1; }";
    accepts "recursion through ref"
      "module t;\nproc d(n: int, ref o: float) { if (n > 0) { d(n - 1, o); } }\nproc main() { var r: float; d(3, r); }";
    accepts "builtin statements"
      (wrap
         {|mh_init(); var x: int; mh_read("a", x); mh_write("b", x);
           var loc: int; mh_capture(1, x); mh_restore(loc, x);
           mh_encode(); mh_decode();|});
    accepts "signal with handler"
      "module t;\nproc h() { }\nproc main() { signal(\"h\"); }";
    accepts "local shadows global"
      "module t;\nvar x: int;\nproc main() { var x: float = 1.0; x = 2.0; }" ]

let rejected =
  [ rejects "unbound variable" "unbound variable y" (wrap "y = 1;");
    rejects "int/float mix" "arithmetic" (wrap "var x: int = 1 + 2.0;");
    rejects "mod on floats" "'%' expects int" (wrap "var f: float = 1.0 % 2.0;");
    rejects "bad condition" "expected" (wrap "if (1) { skip; }");
    rejects "cat on ints" "'^' expects string" (wrap "var s: string = 1 ^ 2;");
    rejects "compare mixed" "same type" (wrap "var b: bool = 1 == 1.0;");
    rejects "order bools" "ordering comparisons" (wrap "var b: bool = true < false;");
    rejects "index non-array" "cannot index" (wrap "var x: int; x[0] = 1;");
    rejects "null inference" "null where a value" (wrap "var x: int = null;");
    rejects "addr of scalar" "cannot take the address"
      (wrap "var x: int; var p: int* = &x[0];");
    rejects "goto unknown" "no such label" (wrap "goto nowhere;");
    rejects "duplicate label" "duplicate label" (wrap "L: skip; L: skip;");
    rejects "duplicate local" "duplicate declaration"
      (wrap "var x: int; if (true) { var x: int; }");
    rejects "duplicate param" "duplicate parameter"
      "module t;\nproc f(a: int, a: int) { }\nproc main() { }";
    rejects "duplicate proc" "duplicate procedure"
      "module t;\nproc f() { }\nproc f() { }\nproc main() { }";
    rejects "duplicate global" "duplicate global"
      "module t;\nvar g: int;\nvar g: int;\nproc main() { }";
    rejects "unknown proc" "undefined procedure" (wrap "nosuch(1);");
    rejects "arity" "expects 1 argument"
      "module t;\nproc f(a: int) { }\nproc main() { f(1, 2); }";
    rejects "arg type" "expected int"
      "module t;\nproc f(a: int) { }\nproc main() { f(1.5); }";
    rejects "ref needs variable" "must be a plain variable"
      "module t;\nproc f(ref a: int) { }\nproc main() { f(1 + 2); }";
    rejects "ref type mismatch" "ref parameter"
      "module t;\nproc f(ref a: int) { }\nproc main() { var x: float; f(x); }";
    rejects "void in expression" "returns no value"
      "module t;\nproc f() { }\nproc main() { var x: int = f(); }";
    rejects "return from void" "returns no value but"
      "module t;\nproc f() { return 1; }\nproc main() { }";
    rejects "missing return value" "must return a value"
      "module t;\nproc f(): int { return; }\nproc main() { }";
    rejects "return type" "expected int"
      "module t;\nproc f(): int { return 1.5; }\nproc main() { }";
    rejects "message must be scalar" "must be scalar"
      (wrap {|var a: int[] = alloc_int(2); mh_write("x", a);|});
    rejects "read target scalar" "scalar type"
      (wrap {|var a: int[]; mh_read("x", a);|});
    rejects "signal handler missing" "is not defined" (wrap {|signal("nope");|});
    rejects "signal handler shape" "no parameters"
      "module t;\nproc h(x: int) { }\nproc main() { signal(\"h\"); }";
    rejects "global initialiser with call" "may not call"
      "module t;\nproc f(): int { return 1; }\nvar g: int = f();\nproc main() { }";
    rejects "global initialiser reads an interface" "may not read an interface"
      "module t;\nvar q: bool = !mh_query(\"in\");\nproc main() { }";
    rejects "global initialiser type" "expected int"
      "module t;\nvar g: int = 1.5;\nproc main() { }";
    rejects "sleep type" "sleep expects" (wrap {|sleep("x");|}) ]

let test_locals_function_scoped () =
  (* A use before the declaration statement is fine: locals exist for the
     whole activation (C-style function scope, as the restore blocks
     require). *)
  Support.typecheck_ok
    (Support.parse "module t;\nproc main() { x = 1; var x: int; }")

let test_default_value_expr () =
  let module T = Dr_lang.Typecheck in
  let module A = Dr_lang.Ast in
  Alcotest.(check bool) "int" true (T.default_value_expr A.Tint = A.Int 0);
  Alcotest.(check bool) "float" true (T.default_value_expr A.Tfloat = A.Float 0.0);
  Alcotest.(check bool) "bool" true (T.default_value_expr A.Tbool = A.Bool false);
  Alcotest.(check bool) "str" true (T.default_value_expr A.Tstr = A.Str "");
  Alcotest.(check bool) "arr" true (T.default_value_expr (A.Tarr A.Tint) = A.Null)

let test_locals_of_proc () =
  let prog =
    Support.parse
      "module t;\nproc f() { var a: int; if (true) { var b: float; } while (false) { var c: string; } }\nproc main() { }"
  in
  match Dr_lang.Ast.find_proc prog "f" with
  | Some proc ->
    Alcotest.(check (list string)) "all nested locals" [ "a"; "b"; "c" ]
      (List.map fst (Dr_lang.Typecheck.locals_of_proc proc))
  | None -> Alcotest.fail "no f"

let () =
  Alcotest.run "typecheck"
    [ ("accepted", accepted);
      ("rejected", rejected);
      ( "semantics",
        [ Alcotest.test_case "function-scoped locals" `Quick
            test_locals_function_scoped;
          Alcotest.test_case "default values" `Quick test_default_value_expr;
          Alcotest.test_case "locals_of_proc" `Quick test_locals_of_proc ] ) ]
