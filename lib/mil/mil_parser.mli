(** Parser for the configuration language (Fig. 2).

    Syntax (token stream shared with the MiniProc lexer):
    {v
    module compute {
      source = "./compute.exe";
      server interface display pattern {integer} returns {float};
      use interface sensor pattern {integer};
      reconfiguration point R state {num, n, rp};
    }
    application monitor {
      instance display;
      instance c2 = compute on "hostB";
      bind "display temper" "compute display";
    }
    v} *)

exception Error of string * int

val parse_config : string -> Spec.config
(** Tokens are pulled from the lexer as the parse advances, so the first
    error in the text is the one raised, whichever its kind; a malformed
    bind endpoint is reported on its own line.
    @raise Error on syntax errors, @raise Dr_lang.Lexer.Error on lexical
    errors. *)
