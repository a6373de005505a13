(** Hand-written lexer for MiniProc source text, also read by the MIL
    parser. A cursor over the text: the parsers pull one token at a
    time, so no token list is ever built. *)

exception Error of string * int
(** [Error (message, line)]. *)

type t
(** A cursor over one source text. *)

val create : string -> t
(** A cursor at the start of the text, on line 1. *)

val next : t -> Token.t
(** The next token. At the end of the text it is [Teof], on this and
    every later call.
    @raise Error on malformed input: a stray character, a lone ['|'], an
    unterminated string or comment, a bad escape, an integer literal
    beyond [max_int] or a float literal with no exponent digits. *)

val line : t -> int
(** The line of the token {!next} returned last (1 before any). *)
