(* Lexical tokens for MiniProc. *)

type t =
  | Tident of string
  | Tint_lit of int
  | Tfloat_lit of float
  | Tstr_lit of string
  (* keywords *)
  | Tmodule | Tvar | Tproc | Tref
  | Tif | Telse | Twhile | Treturn | Tgoto
  | Tprint | Tsleep | Tskip
  | Ttrue | Tfalse | Tnull
  | Tty_int | Tty_float | Tty_bool | Tty_str
  (* punctuation *)
  | Tlbrace | Trbrace | Tlparen | Trparen | Tlbracket | Trbracket
  | Tcomma | Tsemi | Tcolon
  (* operators *)
  | Tassign
  | Teq | Tne | Tlt | Tle | Tgt | Tge
  | Tplus | Tminus | Tstar | Tslash | Tpercent
  | Tandand | Toror | Tbang | Tamp | Tcaret
  | Teof

let to_string = function
  | Tident s -> Printf.sprintf "identifier %S" s
  | Tint_lit i -> string_of_int i
  | Tfloat_lit f -> string_of_float f
  | Tstr_lit s -> Printf.sprintf "%S" s
  | Tmodule -> "module" | Tvar -> "var" | Tproc -> "proc" | Tref -> "ref"
  | Tif -> "if" | Telse -> "else" | Twhile -> "while" | Treturn -> "return"
  | Tgoto -> "goto" | Tprint -> "print" | Tsleep -> "sleep" | Tskip -> "skip"
  | Ttrue -> "true" | Tfalse -> "false" | Tnull -> "null"
  | Tty_int -> "int" | Tty_float -> "float" | Tty_bool -> "bool"
  | Tty_str -> "string"
  | Tlbrace -> "{" | Trbrace -> "}" | Tlparen -> "(" | Trparen -> ")"
  | Tlbracket -> "[" | Trbracket -> "]"
  | Tcomma -> "," | Tsemi -> ";" | Tcolon -> ":"
  | Tassign -> "="
  | Teq -> "==" | Tne -> "!=" | Tlt -> "<" | Tle -> "<=" | Tgt -> ">"
  | Tge -> ">="
  | Tplus -> "+" | Tminus -> "-" | Tstar -> "*" | Tslash -> "/"
  | Tpercent -> "%"
  | Tandand -> "&&" | Toror -> "||" | Tbang -> "!" | Tamp -> "&"
  | Tcaret -> "^"
  | Teof -> "<eof>"
