exception Error of string * int

(* Bytes are read by index with explicit end checks, and no helper is a
   closure: the only allocation is the token itself (an identifier's or
   a string's text, a boxed float). *)
type t = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;  (* line of [pos] *)
  mutable tok_line : int;  (* line of the token [next] returned last *)
}

let create src = { src; len = String.length src; pos = 0; line = 1; tok_line = 1 }

let line t = t.tok_line

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

(* The byte [k] places past [pos], or NUL past the end: compare it only
   with a byte other than NUL. *)
let at t k =
  if t.pos + k < t.len then String.unsafe_get t.src (t.pos + k) else '\000'

(* Step over the byte at [pos < len], counting a newline. *)
let advance t =
  if String.unsafe_get t.src t.pos = '\n' then t.line <- t.line + 1;
  t.pos <- t.pos + 1

let rec skip_block_comment t start_line =
  if t.pos >= t.len then raise (Error ("unterminated comment", start_line))
  else if at t 0 = '*' && at t 1 = '/' then t.pos <- t.pos + 2
  else begin
    advance t;
    skip_block_comment t start_line
  end

let rec skip_ws t =
  match at t 0 with
  | ' ' | '\t' | '\r' | '\n' ->
    advance t;
    skip_ws t
  | '/' when at t 1 = '/' ->
    while t.pos < t.len && at t 0 <> '\n' do
      t.pos <- t.pos + 1
    done;
    skip_ws t
  | '/' when at t 1 = '*' ->
    let start_line = t.line in
    t.pos <- t.pos + 2;
    skip_block_comment t start_line;
    skip_ws t
  | _ -> ()

let skip_digits t =
  while is_digit (at t 0) do
    t.pos <- t.pos + 1
  done

(* digit+ ('.' digit+ (['e' 'E'] ['+' '-']? digit+)?)? *)
let lex_number t =
  let start = t.pos in
  skip_digits t;
  if at t 0 = '.' && is_digit (at t 1) then begin
    t.pos <- t.pos + 1;
    skip_digits t;
    if at t 0 = 'e' || at t 0 = 'E' then begin
      t.pos <- t.pos + 1;
      if at t 0 = '+' || at t 0 = '-' then t.pos <- t.pos + 1;
      if not (is_digit (at t 0)) then
        raise
          (Error
             ( Printf.sprintf "float literal %s has no exponent digits"
                 (String.sub t.src start (t.pos - start)),
               t.tok_line ));
      skip_digits t
    end;
    Token.Tfloat_lit (float_of_string (String.sub t.src start (t.pos - start)))
  end
  else begin
    let value = ref 0 in
    for i = start to t.pos - 1 do
      let d = Char.code (String.unsafe_get t.src i) - Char.code '0' in
      if !value > (max_int - d) / 10 then
        raise
          (Error
             ( Printf.sprintf "integer literal %s is out of range"
                 (String.sub t.src start (t.pos - start)),
               t.tok_line ));
      value := (!value * 10) + d
    done;
    Token.Tint_lit !value
  end

let keyword = function
  | "module" -> Token.Tmodule
  | "var" -> Token.Tvar
  | "proc" -> Token.Tproc
  | "ref" -> Token.Tref
  | "if" -> Token.Tif
  | "else" -> Token.Telse
  | "while" -> Token.Twhile
  | "return" -> Token.Treturn
  | "goto" -> Token.Tgoto
  | "print" -> Token.Tprint
  | "sleep" -> Token.Tsleep
  | "skip" -> Token.Tskip
  | "true" -> Token.Ttrue
  | "false" -> Token.Tfalse
  | "null" -> Token.Tnull
  | "int" -> Token.Tty_int
  | "float" -> Token.Tty_float
  | "bool" -> Token.Tty_bool
  | "string" -> Token.Tty_str
  | text -> Token.Tident text

let lex_ident t =
  let start = t.pos in
  while is_alnum (at t 0) do
    t.pos <- t.pos + 1
  done;
  keyword (String.sub t.src start (t.pos - start))

(* The rest of a string literal opened on [line], from its first
   backslash on, into [buf]. *)
let rec lex_escaped t buf line =
  if t.pos >= t.len then raise (Error ("unterminated string literal", line));
  match String.unsafe_get t.src t.pos with
  | '"' -> t.pos <- t.pos + 1
  | '\\' ->
    t.pos <- t.pos + 1;
    if t.pos >= t.len then raise (Error ("unterminated string literal", line));
    (match String.unsafe_get t.src t.pos with
    | 'n' -> Buffer.add_char buf '\n'
    | 't' -> Buffer.add_char buf '\t'
    | '\\' -> Buffer.add_char buf '\\'
    | '"' -> Buffer.add_char buf '"'
    | c -> raise (Error (Printf.sprintf "bad escape '\\%c'" c, t.line)));
    t.pos <- t.pos + 1;
    lex_escaped t buf line
  | c ->
    Buffer.add_char buf c;
    advance t;
    lex_escaped t buf line

(* A literal without escapes is one [String.sub]; at the first backslash
   the text so far seeds a buffer. *)
let lex_string t =
  t.pos <- t.pos + 1;
  let start = t.pos in
  while t.pos < t.len && at t 0 <> '"' && at t 0 <> '\\' do
    advance t
  done;
  if t.pos >= t.len then raise (Error ("unterminated string literal", t.tok_line))
  else if at t 0 = '"' then begin
    t.pos <- t.pos + 1;
    Token.Tstr_lit (String.sub t.src start (t.pos - 1 - start))
  end
  else begin
    let buf = Buffer.create (t.pos - start + 16) in
    Buffer.add_substring buf t.src start (t.pos - start);
    lex_escaped t buf t.tok_line;
    Token.Tstr_lit (Buffer.contents buf)
  end

let single t tok =
  t.pos <- t.pos + 1;
  tok

(* [pair] when the next byte is [second], else [alone]. *)
let pair_or t second pair alone =
  if at t 1 = second then begin
    t.pos <- t.pos + 2;
    pair
  end
  else single t alone

let next t =
  skip_ws t;
  t.tok_line <- t.line;
  if t.pos >= t.len then Token.Teof
  else
    match String.unsafe_get t.src t.pos with
    | '0' .. '9' -> lex_number t
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> lex_ident t
    | '"' -> lex_string t
    | '{' -> single t Token.Tlbrace
    | '}' -> single t Token.Trbrace
    | '(' -> single t Token.Tlparen
    | ')' -> single t Token.Trparen
    | '[' -> single t Token.Tlbracket
    | ']' -> single t Token.Trbracket
    | ',' -> single t Token.Tcomma
    | ';' -> single t Token.Tsemi
    | ':' -> single t Token.Tcolon
    | '+' -> single t Token.Tplus
    | '-' -> single t Token.Tminus
    | '*' -> single t Token.Tstar
    | '/' -> single t Token.Tslash
    | '%' -> single t Token.Tpercent
    | '^' -> single t Token.Tcaret
    | '=' -> pair_or t '=' Token.Teq Token.Tassign
    | '!' -> pair_or t '=' Token.Tne Token.Tbang
    | '<' -> pair_or t '=' Token.Tle Token.Tlt
    | '>' -> pair_or t '=' Token.Tge Token.Tgt
    | '&' -> pair_or t '&' Token.Tandand Token.Tamp
    | '|' when at t 1 = '|' ->
      t.pos <- t.pos + 2;
      Token.Toror
    | '|' -> raise (Error ("single '|' is not an operator", t.tok_line))
    | c -> raise (Error (Printf.sprintf "unexpected character %C" c, t.tok_line))
