module Lexer = Dr_lang.Lexer
module Token = Dr_lang.Token

let tokens source = List.map fst (Support.tokenize source)

let toks =
  Alcotest.testable
    (fun ppf tok -> Fmt.string ppf (Token.to_string tok))
    (fun a b -> a = b)

let check_tokens name source expected =
  Alcotest.(check (list toks)) name (expected @ [ Token.Teof ]) (tokens source)

let test_idents_and_keywords () =
  check_tokens "keywords vs idents" "module var foo proc refx ref"
    [ Token.Tmodule; Token.Tvar; Token.Tident "foo"; Token.Tproc;
      Token.Tident "refx"; Token.Tref ]

let test_numbers () =
  check_tokens "ints and floats" "0 42 3.5 10.25 2.0e3 7e2"
    [ Token.Tint_lit 0; Token.Tint_lit 42; Token.Tfloat_lit 3.5;
      Token.Tfloat_lit 10.25; Token.Tfloat_lit 2000.0;
      (* "7e2" without a dot lexes as int 7 then ident e2 *)
      Token.Tint_lit 7; Token.Tident "e2" ]

let test_operators () =
  check_tokens "operators" "== != <= >= < > = + - * / % && || ! & ^"
    [ Token.Teq; Token.Tne; Token.Tle; Token.Tge; Token.Tlt; Token.Tgt;
      Token.Tassign; Token.Tplus; Token.Tminus; Token.Tstar; Token.Tslash;
      Token.Tpercent; Token.Tandand; Token.Toror; Token.Tbang; Token.Tamp;
      Token.Tcaret ]

let test_punctuation () =
  check_tokens "punctuation" "{ } ( ) [ ] , ; :"
    [ Token.Tlbrace; Token.Trbrace; Token.Tlparen; Token.Trparen;
      Token.Tlbracket; Token.Trbracket; Token.Tcomma; Token.Tsemi;
      Token.Tcolon ]

let test_string_literals () =
  check_tokens "plain string" {|"hello"|} [ Token.Tstr_lit "hello" ];
  check_tokens "escapes" {|"a\nb\tc\\d\"e"|} [ Token.Tstr_lit "a\nb\tc\\d\"e" ];
  check_tokens "empty" {|""|} [ Token.Tstr_lit "" ]

let test_line_comments () =
  check_tokens "line comment" "x // rest of line\ny"
    [ Token.Tident "x"; Token.Tident "y" ]

let test_block_comments () =
  check_tokens "block comment" "x /* lots \n of \n stuff */ y"
    [ Token.Tident "x"; Token.Tident "y" ]

let test_line_numbers () =
  let toks = Support.tokenize "a\nb\n  c" in
  let lines = List.map snd toks in
  Alcotest.(check (list int)) "lines" [ 1; 2; 3; 3 ] lines

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let check_error name source expected_fragment =
  match Support.tokenize source with
  | exception Lexer.Error (message, _) ->
    if not (contains expected_fragment message) then
      Alcotest.failf "%s: error %S lacks %S" name message expected_fragment
  | _ -> Alcotest.failf "%s: expected a lexical error" name

let test_unterminated_string () =
  check_error "unterminated string" {|"abc|} "unterminated string"

let test_unterminated_comment () =
  check_error "unterminated comment" "/* abc" "unterminated comment"

let test_bad_escape () = check_error "bad escape" {|"\q"|} "bad escape"

let test_stray_char () = check_error "stray char" "a # b" "unexpected character"

let test_single_pipe () = check_error "single pipe" "a | b" "single '|'"

let test_true_false_null () =
  check_tokens "literals" "true false null"
    [ Token.Ttrue; Token.Tfalse; Token.Tnull ]

(* Numerals the lexer once handed to [int_of_string] and
   [float_of_string] unchecked: each escaped as [Failure]. They are
   lexical errors, reported on the literal's line. *)
let test_numeral_errors () =
  List.iter
    (fun (literal, message) ->
      match Support.tokenize ("x\n  " ^ literal ^ " y") with
      | exception Lexer.Error (m, line) ->
        Alcotest.(check (pair string int)) literal (message, 2) (m, line)
      | _ -> Alcotest.failf "%s: expected a lexical error" literal)
    [ ( "99999999999999999999",
        "integer literal 99999999999999999999 is out of range" );
      ( "4611686018427387904",
        "integer literal 4611686018427387904 is out of range" );
      ("1.5e", "float literal 1.5e has no exponent digits");
      ("1.5e+", "float literal 1.5e+ has no exponent digits") ]

let test_numeral_limits () =
  check_tokens "max_int and exponents"
    "4611686018427387903 1.5E+3 2.5e-1 1.0e400 0007"
    [ Token.Tint_lit max_int; Token.Tfloat_lit 1500.0; Token.Tfloat_lit 0.25;
      Token.Tfloat_lit infinity; Token.Tint_lit 7 ]

(* {1 The cursor lexer against the list lexer it replaced} *)

let keywords =
  [ "module"; "var"; "proc"; "ref"; "if"; "else"; "while"; "return"; "goto";
    "print"; "sleep"; "skip"; "true"; "false"; "null"; "int"; "float"; "bool";
    "string" ]

let operators =
  [ "=="; "!="; "<="; ">="; "<"; ">"; "="; "+"; "-"; "*"; "/"; "%"; "&&";
    "||"; "!"; "&"; "^"; "{"; "}"; "("; ")"; "["; "]"; ","; ";"; ":" ]

(* One lexical fragment; the texts below join them with and without
   blanks, so neighbours also fuse ("a" "1" is one identifier, "/" "*"
   opens a comment). About one fragment in thirty is malformed, so most
   texts lex to the end and the rest stop at an error. *)
let fragment =
  let open QCheck2.Gen in
  let chars cs n = string_size ~gen:(oneofl cs) (int_range 0 n) in
  let digits = map (fun d -> "1" ^ d) (chars [ '0'; '5'; '9' ] 4) in
  let ident =
    map2 ( ^ )
      (oneofl [ "a"; "Z"; "_"; "m"; "int"; "ref"; "e" ])
      (chars [ 'a'; 'x'; '0'; '9'; '_'; 'Z' ] 5)
  in
  let float exponents =
    map3 (fun a b e -> a ^ "." ^ b ^ e) digits digits (oneofl exponents)
  in
  let string_lit pieces close =
    map2
      (fun body close -> "\"" ^ String.concat "" body ^ close)
      (list_size (int_range 0 5) (oneofl pieces))
      (oneofl close)
  in
  let pieces =
    [ "a"; " "; "\n"; "\\n"; "\\t"; "\\\\"; "\\\""; "//"; "/*"; "\000" ]
  in
  let well_formed =
    frequency
      [ (4, oneofl keywords);
        (4, ident);
        (3, map string_of_int nat);
        (1, oneofl [ "0"; "007"; "4611686018427387903" ]);
        (3, float [ ""; ""; "e5"; "E-12"; "e+400"; "E+3" ]);
        (3, string_lit pieces [ "\"" ]);
        (2, oneofl [ "// a\n"; "//\n"; "/* a */"; "/*\n**/"; "/***/" ]);
        (8, oneofl operators) ]
  in
  let malformed =
    oneof
      [ oneofl [ "4611686018427387904"; "99999999999999999999" ];
        float [ "e"; "E"; "e+"; "e-"; "e+x" ];
        string_lit ("\\q" :: pieces) [ "\""; "" ];
        oneofl
          [ "/* a"; "/*\n*"; "\000"; "|"; "#"; "."; "\x80"; "\x0c"; "'"; "\\" ] ]
  in
  frequency [ (29, well_formed); (1, malformed) ]

let text =
  QCheck2.Gen.(
    map
      (fun parts ->
        String.concat "" (List.concat_map (fun (s, f) -> [ s; f ]) parts))
      (list_size (int_range 0 25)
         (pair (oneofl [ ""; " "; "\n"; "\t"; "\r\n" ]) fragment)))

let outcome tokenize source =
  match tokenize source with
  | tokens -> `Tokens tokens
  | exception Lexer.Error (message, line) -> `Error (message, line)
  | exception Failure _ -> `Failure

let out_of_range message =
  let starts prefix =
    String.length message >= String.length prefix
    && String.equal (String.sub message 0 (String.length prefix)) prefix
  in
  starts "integer literal " || starts "float literal "

(* Same tokens on the same lines, or the same error on the same line;
   where the list lexer raised [Failure] on a numeral, the cursor lexer
   raises [Lexer.Error] on it. *)
let prop_matches_list_lexer =
  Support.qcheck ~count:500 ~print:(Printf.sprintf "%S")
    "cursor lexer = list lexer" text (fun source ->
      match
        (outcome Lexer_oracle.tokenize source, outcome Support.tokenize source)
      with
      | `Failure, `Error (message, _) -> out_of_range message
      | expected, got -> expected = got)

let () =
  Alcotest.run "lexer"
    [ ( "tokens",
        [ Alcotest.test_case "idents/keywords" `Quick test_idents_and_keywords;
          Alcotest.test_case "numbers" `Quick test_numbers;
          Alcotest.test_case "numeral limits" `Quick test_numeral_limits;
          Alcotest.test_case "operators" `Quick test_operators;
          Alcotest.test_case "punctuation" `Quick test_punctuation;
          Alcotest.test_case "strings" `Quick test_string_literals;
          Alcotest.test_case "literals" `Quick test_true_false_null;
          Alcotest.test_case "line comments" `Quick test_line_comments;
          Alcotest.test_case "block comments" `Quick test_block_comments;
          Alcotest.test_case "line numbers" `Quick test_line_numbers ] );
      ( "errors",
        [ Alcotest.test_case "unterminated string" `Quick test_unterminated_string;
          Alcotest.test_case "unterminated comment" `Quick
            test_unterminated_comment;
          Alcotest.test_case "bad escape" `Quick test_bad_escape;
          Alcotest.test_case "stray char" `Quick test_stray_char;
          Alcotest.test_case "single pipe" `Quick test_single_pipe;
          Alcotest.test_case "out-of-range numerals" `Quick test_numeral_errors ] );
      ("differential", [ prop_matches_list_lexer ]) ]
