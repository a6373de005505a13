module Ast = Dr_lang.Ast
module Parser = Dr_lang.Parser
module Pretty = Dr_lang.Pretty

let expr_eq = Alcotest.testable Pretty.pp_expr Ast.equal_expr

let check_expr name source expected =
  Alcotest.check expr_eq name expected (Parser.parse_expr source)

let test_precedence_arith () =
  check_expr "mul binds tighter" "1 + 2 * 3"
    (Binop (Add, Int 1, Binop (Mul, Int 2, Int 3)));
  check_expr "left assoc sub" "10 - 4 - 3"
    (Binop (Sub, Binop (Sub, Int 10, Int 4), Int 3));
  check_expr "parens" "(1 + 2) * 3" (Binop (Mul, Binop (Add, Int 1, Int 2), Int 3))

let test_precedence_bool () =
  check_expr "and over or" "a || b && c"
    (Binop (Or, Var "a", Binop (And, Var "b", Var "c")));
  check_expr "cmp over and" "x < 1 && y > 2"
    (Binop (And, Binop (Lt, Var "x", Int 1), Binop (Gt, Var "y", Int 2)));
  check_expr "not" "!a && b" (Binop (And, Unop (Not, Var "a"), Var "b"))

let test_concat_precedence () =
  check_expr "cat binds looser than add" {|"a" ^ str(1 + 2)|}
    (Binop (Cat, Str "a", Builtin ("str", [ Binop (Add, Int 1, Int 2) ])));
  check_expr "cmp over cat" {|"a" ^ "b" == "ab"|}
    (Binop (Eq, Binop (Cat, Str "a", Str "b"), Str "ab"))

let test_unary () =
  check_expr "neg" "-x" (Unop (Neg, Var "x"));
  check_expr "neg in product" "-x * y" (Binop (Mul, Unop (Neg, Var "x"), Var "y"));
  check_expr "double not" "!!b" (Unop (Not, Unop (Not, Var "b")))

let test_postfix_index () =
  check_expr "index" "a[i + 1]" (Index (Var "a", Binop (Add, Var "i", Int 1)));
  check_expr "nested index" "a[0][1]" (Index (Index (Var "a", Int 0), Int 1));
  check_expr "addr" "&a[2]" (Addr ("a", Int 2))

let test_calls_and_builtins () =
  check_expr "call" "f(1, x)" (Call ("f", [ Int 1; Var "x" ]));
  check_expr "builtin query" {|mh_query("in")|} (Builtin ("mh_query", [ Str "in" ]));
  check_expr "float conversion uses keyword" "float(3)"
    (Builtin ("float", [ Int 3 ]));
  check_expr "int conversion uses keyword" "int(3.5)"
    (Builtin ("int", [ Float 3.5 ]));
  check_expr "len" "len(a)" (Builtin ("len", [ Var "a" ]))

let parse_main body =
  let src = Printf.sprintf "module t;\nproc main() {\n%s\n}" body in
  match (Parser.parse_program src).procs with
  | [ { body; _ } ] -> body
  | _ -> Alcotest.fail "expected exactly one proc"

let test_stmt_forms () =
  (match parse_main "var x: int = 3;" with
  | [ { kind = Decl ("x", Tint, Some (Int 3)); _ } ] -> ()
  | _ -> Alcotest.fail "decl");
  (match parse_main "x[2] = 5;" with
  | [ { kind = Assign (Lindex ("x", Int 2), Int 5); _ } ] -> ()
  | _ -> Alcotest.fail "indexed assign");
  (match parse_main "L: goto L;" with
  | [ { label = Some "L"; kind = Goto "L"; _ } ] -> ()
  | _ -> Alcotest.fail "label+goto");
  (match parse_main "skip;" with
  | [ { kind = Skip; _ } ] -> ()
  | _ -> Alcotest.fail "skip");
  match parse_main "return 1 + 2;" with
  | [ { kind = Return (Some (Binop (Add, Int 1, Int 2))); _ } ] -> ()
  | _ -> Alcotest.fail "return"

let test_if_else_chain () =
  match parse_main "if (a) { skip; } else if (b) { skip; } else { skip; }" with
  | [ { kind = If (Var "a", [ _ ], [ { kind = If (Var "b", [ _ ], [ _ ]); _ } ]); _ } ]
    -> ()
  | _ -> Alcotest.fail "else-if chain shape"

let test_types () =
  let src = "module t;\nvar a: int[];\nvar p: float*;\nvar m: int[][];\nproc main() { }" in
  let prog = Parser.parse_program src in
  let ty_of name =
    match Ast.find_global prog name with
    | Some g -> g.gty
    | None -> Alcotest.failf "missing global %s" name
  in
  Alcotest.(check string) "arr" "int[]" (Pretty.ty_to_string (ty_of "a"));
  Alcotest.(check string) "ptr" "float*" (Pretty.ty_to_string (ty_of "p"));
  Alcotest.(check string) "arr arr" "int[][]" (Pretty.ty_to_string (ty_of "m"))

let test_params () =
  let src = "module t;\nproc f(a: int, ref b: float) { }\nproc main() { }" in
  match (Parser.parse_program src).procs with
  | [ { params = [ p1; p2 ]; _ }; _ ] ->
    Alcotest.(check bool) "a by value" false p1.pref;
    Alcotest.(check bool) "b by ref" true p2.pref
  | _ -> Alcotest.fail "params"

let test_builtin_stmt_out_args () =
  (match parse_main {|mh_read("in", x);|} with
  | [ { kind = BuiltinS ("mh_read", [ Aexpr (Str "in"); Alv (Lvar "x") ]); _ } ]
    -> ()
  | _ -> Alcotest.fail "mh_read out arg");
  match parse_main "mh_restore(loc, a, b[0]);" with
  | [ { kind =
          BuiltinS
            ( "mh_restore",
              [ Alv (Lvar "loc"); Alv (Lvar "a"); Alv (Lindex ("b", Int 0)) ] );
        _ } ] ->
    ()
  | _ -> Alcotest.fail "mh_restore all lvalues"

let check_parse_error name source fragment =
  match Parser.parse_program source with
  | exception Parser.Error (message, _) ->
    let contains needle haystack =
      let n = String.length needle and h = String.length haystack in
      let rec go i =
        i + n <= h && (String.sub haystack i n = needle || go (i + 1))
      in
      n = 0 || go 0
    in
    if not (contains fragment message) then
      Alcotest.failf "%s: error %S lacks %S" name message fragment
  | _ -> Alcotest.failf "%s: expected parse error" name

(* Tokens are pulled as the parse goes, so the first error in the text is
   the one reported, whichever kind it is. *)
let test_first_error_wins () =
  let program line3 line5 =
    Printf.sprintf "module m;\nproc main() {\n  %s\n  skip;\n  %s\n}\n" line3 line5
  in
  let error_of source =
    match Parser.parse_program source with
    | exception Parser.Error (message, line) ->
      Printf.sprintf "parse error at line %d: %s" line message
    | exception Dr_lang.Lexer.Error (message, line) ->
      Printf.sprintf "lexical error at line %d: %s" line message
    | _ -> "no error"
  in
  Alcotest.(check string) "parse error first"
    "parse error at line 3: expected an expression, found ;"
    (error_of (program "x = ;" "#"));
  Alcotest.(check string) "lexical error first"
    "lexical error at line 3: unexpected character '#'"
    (error_of (program "#" "x = ;"))

let test_errors () =
  check_parse_error "missing semi" "module t;\nproc main() { skip }" "expected";
  check_parse_error "missing module" "proc main() { }" "expected module";
  check_parse_error "builtin as stmt misuse" "module t;\nproc main() { mh_query(\"x\"); }"
    "expression, not a statement";
  check_parse_error "bad out arg" "module t;\nproc main() { mh_read(\"i\", 1 + 2); }"
    "must be a variable";
  check_parse_error "bad arity" "module t;\nproc main() { mh_write(\"i\"); }"
    "argument";
  check_parse_error "trailing garbage" "module t;\nproc main() { } }" "expected"

let prop_roundtrip_expr =
  Support.qcheck ~count:500 "print/parse round-trips expressions" Gen.expr
    (fun e ->
      let printed = Pretty.expr_to_string e in
      match Parser.parse_expr printed with
      | reparsed -> Ast.equal_expr e reparsed
      | exception _ ->
        QCheck2.Test.fail_reportf "failed to reparse %S" printed)

let prop_roundtrip_program =
  Support.qcheck ~count:300 "print/parse round-trips programs" Gen.program
    (fun p ->
      let printed = Pretty.program_to_string p in
      match Parser.parse_program printed with
      | reparsed -> Ast.equal_program p reparsed
      | exception e ->
        QCheck2.Test.fail_reportf "failed to reparse:\n%s\n%s" printed
          (Printexc.to_string e))

let () =
  Alcotest.run "parser"
    [ ( "expressions",
        [ Alcotest.test_case "arith precedence" `Quick test_precedence_arith;
          Alcotest.test_case "bool precedence" `Quick test_precedence_bool;
          Alcotest.test_case "concat precedence" `Quick test_concat_precedence;
          Alcotest.test_case "unary" `Quick test_unary;
          Alcotest.test_case "index/addr" `Quick test_postfix_index;
          Alcotest.test_case "calls/builtins" `Quick test_calls_and_builtins ] );
      ( "statements",
        [ Alcotest.test_case "forms" `Quick test_stmt_forms;
          Alcotest.test_case "else-if" `Quick test_if_else_chain;
          Alcotest.test_case "types" `Quick test_types;
          Alcotest.test_case "params" `Quick test_params;
          Alcotest.test_case "builtin out args" `Quick test_builtin_stmt_out_args ] );
      ( "errors",
        [ Alcotest.test_case "diagnostics" `Quick test_errors;
          Alcotest.test_case "first error wins" `Quick test_first_error_wins ] );
      ("properties", [ prop_roundtrip_expr; prop_roundtrip_program ]) ]
