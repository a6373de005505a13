(* The MiniProc lexer as it stood before the cursor lexer replaced it:
   an option per byte peeked, keywords found in an association list, the
   whole token list built up front. Kept only as the reference the lexer
   tests compare [Dr_lang.Lexer] against; nothing else uses it. It
   raises [Dr_lang.Lexer.Error], except on an integer beyond [max_int]
   and a float literal without exponent digits, where [int_of_string]
   and [float_of_string] raise [Failure]. *)

module Token = Dr_lang.Token

exception Error = Dr_lang.Lexer.Error

let keyword_table =
  [ "module", Token.Tmodule; "var", Token.Tvar; "proc", Token.Tproc;
    "ref", Token.Tref; "if", Token.Tif; "else", Token.Telse;
    "while", Token.Twhile; "return", Token.Treturn; "goto", Token.Tgoto;
    "print", Token.Tprint; "sleep", Token.Tsleep; "skip", Token.Tskip;
    "true", Token.Ttrue; "false", Token.Tfalse; "null", Token.Tnull;
    "int", Token.Tty_int; "float", Token.Tty_float; "bool", Token.Tty_bool;
    "string", Token.Tty_str ]

type state = { src : string; mutable pos : int; mutable line : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with Some '\n' -> st.line <- st.line + 1 | _ -> ());
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    skip_ws st
  | Some '/' when peek2 st = Some '/' ->
    let rec to_eol () =
      match peek st with
      | Some '\n' | None -> ()
      | Some _ ->
        advance st;
        to_eol ()
    in
    to_eol ();
    skip_ws st
  | Some '/' when peek2 st = Some '*' ->
    let start_line = st.line in
    advance st;
    advance st;
    let rec to_close () =
      match peek st, peek2 st with
      | Some '*', Some '/' ->
        advance st;
        advance st
      | None, _ -> raise (Error ("unterminated comment", start_line))
      | Some _, _ ->
        advance st;
        to_close ()
    in
    to_close ();
    skip_ws st
  | Some _ | None -> ()

let lex_number st =
  let start = st.pos in
  while (match peek st with Some c -> is_digit c | None -> false) do
    advance st
  done;
  let is_float =
    match peek st, peek2 st with
    | Some '.', Some c when is_digit c -> true
    | _ -> false
  in
  if is_float then begin
    advance st;
    while (match peek st with Some c -> is_digit c | None -> false) do
      advance st
    done;
    (* optional exponent *)
    (match peek st with
    | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      while (match peek st with Some c -> is_digit c | None -> false) do
        advance st
      done
    | _ -> ());
    let text = String.sub st.src start (st.pos - start) in
    Token.Tfloat_lit (float_of_string text)
  end
  else begin
    let text = String.sub st.src start (st.pos - start) in
    Token.Tint_lit (int_of_string text)
  end

let lex_ident st =
  let start = st.pos in
  while (match peek st with Some c -> is_alnum c | None -> false) do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  match List.assoc_opt text keyword_table with
  | Some kw -> kw
  | None -> Token.Tident text

let lex_string st =
  let line = st.line in
  advance st;
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> raise (Error ("unterminated string literal", line))
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some '\\' -> Buffer.add_char buf '\\'
      | Some '"' -> Buffer.add_char buf '"'
      | Some c -> raise (Error (Printf.sprintf "bad escape '\\%c'" c, st.line))
      | None -> raise (Error ("unterminated string literal", line)));
      advance st;
      loop ()
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      loop ()
  in
  loop ();
  Token.Tstr_lit (Buffer.contents buf)

let next_token st =
  skip_ws st;
  let line = st.line in
  let tok =
    match peek st with
    | None -> Token.Teof
    | Some c when is_digit c -> lex_number st
    | Some c when is_alpha c -> lex_ident st
    | Some '"' -> lex_string st
    | Some c ->
      let two target result =
        if peek2 st = Some target then begin
          advance st;
          advance st;
          Some result
        end
        else None
      in
      let simple result =
        advance st;
        result
      in
      (match c with
      | '{' -> simple Token.Tlbrace
      | '}' -> simple Token.Trbrace
      | '(' -> simple Token.Tlparen
      | ')' -> simple Token.Trparen
      | '[' -> simple Token.Tlbracket
      | ']' -> simple Token.Trbracket
      | ',' -> simple Token.Tcomma
      | ';' -> simple Token.Tsemi
      | ':' -> simple Token.Tcolon
      | '+' -> simple Token.Tplus
      | '-' -> simple Token.Tminus
      | '*' -> simple Token.Tstar
      | '/' -> simple Token.Tslash
      | '%' -> simple Token.Tpercent
      | '^' -> simple Token.Tcaret
      | '=' -> ( match two '=' Token.Teq with Some t -> t | None -> simple Token.Tassign)
      | '!' -> ( match two '=' Token.Tne with Some t -> t | None -> simple Token.Tbang)
      | '<' -> ( match two '=' Token.Tle with Some t -> t | None -> simple Token.Tlt)
      | '>' -> ( match two '=' Token.Tge with Some t -> t | None -> simple Token.Tgt)
      | '&' -> ( match two '&' Token.Tandand with Some t -> t | None -> simple Token.Tamp)
      | '|' -> (
        match two '|' Token.Toror with
        | Some t -> t
        | None -> raise (Error ("single '|' is not an operator", line)))
      | _ -> raise (Error (Printf.sprintf "unexpected character %C" c, line)))
  in
  (tok, line)

let tokenize src =
  let st = { src; pos = 0; line = 1 } in
  let rec loop acc =
    let ((tok, _) as entry) = next_token st in
    match tok with
    | Token.Teof -> List.rev (entry :: acc)
    | _ -> loop (entry :: acc)
  in
  loop []
