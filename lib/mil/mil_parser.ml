module Token = Dr_lang.Token
module Lexer = Dr_lang.Lexer

exception Error of string * int

(* One token of lookahead, pulled from the lexer as the parse advances:
   a lexical error surfaces only when the parse reaches it. *)
type state = { lex : Lexer.t; mutable tok : Token.t; mutable line : int }

let peek st = st.tok

let advance st =
  st.tok <- Lexer.next st.lex;
  st.line <- Lexer.line st.lex

let fail st message = raise (Error (message, st.line))

let expect st tok =
  if st.tok = tok then advance st
  else
    fail st
      (Printf.sprintf "expected %s but found %s" (Token.to_string tok)
         (Token.to_string st.tok))

let expect_ident st =
  match st.tok with
  | Token.Tident name ->
    advance st;
    name
  | tok ->
    fail st (Printf.sprintf "expected identifier, found %s" (Token.to_string tok))

let current_string st =
  match st.tok with
  | Token.Tstr_lit s -> s
  | tok ->
    fail st
      (Printf.sprintf "expected string literal, found %s" (Token.to_string tok))

let expect_string st =
  let s = current_string st in
  advance st;
  s

(* Keywords of MIL that arrive as plain identifiers. *)
let at_ident st word =
  match peek st with Token.Tident w -> String.equal w word | _ -> false

let eat_ident st word =
  if at_ident st word then advance st
  else fail st (Printf.sprintf "expected '%s'" word)

let parse_msg_ty st =
  match peek st with
  | Token.Tty_int ->
    advance st;
    Spec.Mint
  | Token.Tty_float ->
    advance st;
    Spec.Mfloat
  | Token.Tty_bool ->
    advance st;
    Spec.Mbool
  | Token.Tty_str ->
    advance st;
    Spec.Mstr
  | Token.Tident "integer" ->
    advance st;
    Spec.Mint
  | Token.Tident "boolean" ->
    advance st;
    Spec.Mbool
  | tok ->
    fail st
      (Printf.sprintf "expected a message type, found %s"
         (Token.to_string tok))

let parse_ty_braces st =
  expect st Token.Tlbrace;
  if peek st = Token.Trbrace then begin
    advance st;
    []
  end
  else begin
    let rec loop acc =
      let ty = parse_msg_ty st in
      match peek st with
      | Token.Tcomma ->
        advance st;
        loop (ty :: acc)
      | _ ->
        expect st Token.Trbrace;
        List.rev (ty :: acc)
    in
    loop []
  end

let parse_iface st role =
  eat_ident st "interface";
  let if_name = expect_ident st in
  let pattern = ref [] and accepts = ref [] and returns = ref [] in
  let rec clauses () =
    if at_ident st "pattern" then begin
      advance st;
      pattern := parse_ty_braces st;
      clauses ()
    end
    else if at_ident st "accepts" then begin
      advance st;
      accepts := parse_ty_braces st;
      clauses ()
    end
    else if at_ident st "returns" then begin
      advance st;
      returns := parse_ty_braces st;
      clauses ()
    end
  in
  clauses ();
  expect st Token.Tsemi;
  { Spec.if_name; role; pattern = !pattern; accepts = !accepts; returns = !returns }

let parse_point st =
  eat_ident st "point";
  let rp_label = expect_ident st in
  let rp_state =
    if at_ident st "state" then begin
      advance st;
      expect st Token.Tlbrace;
      if peek st = Token.Trbrace then begin
        advance st;
        Some []
      end
      else begin
        let rec loop acc =
          let v = expect_ident st in
          match peek st with
          | Token.Tcomma ->
            advance st;
            loop (v :: acc)
          | _ ->
            expect st Token.Trbrace;
            Some (List.rev (v :: acc))
        in
        loop []
      end
    end
    else None
  in
  expect st Token.Tsemi;
  { Spec.rp_label; rp_state }

let parse_module st =
  expect st Token.Tmodule;
  let ms_name = expect_ident st in
  expect st Token.Tlbrace;
  let source = ref None and machine = ref None in
  let ifaces = ref [] and points = ref [] and attrs = ref [] in
  let rec items () =
    match st.tok with
    | Token.Trbrace -> advance st
    | Token.Tident role
      when List.mem role [ "client"; "server"; "use"; "define" ] ->
      advance st;
      let role =
        match role with
        | "client" -> Spec.Client
        | "server" -> Spec.Server
        | "use" -> Spec.Use
        | _ -> Spec.Define
      in
      ifaces := parse_iface st role :: !ifaces;
      items ()
    | Token.Tident "reconfiguration" ->
      advance st;
      points := parse_point st :: !points;
      items ()
    | Token.Tident key ->
      advance st;
      expect st Token.Tassign;
      let value = expect_string st in
      expect st Token.Tsemi;
      (match key with
      | "source" -> source := Some value
      | "machine" -> machine := Some value
      | _ -> attrs := (key, value) :: !attrs);
      items ()
    | tok ->
      fail st
        (Printf.sprintf "unexpected %s in module specification"
           (Token.to_string tok))
  in
  items ();
  { Spec.ms_name; source = !source; machine = !machine;
    ifaces = List.rev !ifaces; points = List.rev !points;
    attrs = List.rev !attrs }

(* A bind endpoint, "<instance> <interface>": a malformed one is
   reported on the line of its own string token. *)
let expect_endpoint st =
  let raw = current_string st in
  match String.split_on_char ' ' (String.trim raw) with
  | [ inst; iface ] when inst <> "" && iface <> "" ->
    advance st;
    (inst, iface)
  | _ ->
    fail st (Printf.sprintf "endpoint %S must be \"<instance> <interface>\"" raw)

let parse_application st =
  eat_ident st "application";
  let app_name = expect_ident st in
  expect st Token.Tlbrace;
  let instances = ref [] and binds = ref [] in
  let rec items () =
    match st.tok with
    | Token.Trbrace -> advance st
    | Token.Tident "instance" ->
      advance st;
      let inst_name = expect_ident st in
      let inst_module =
        if peek st = Token.Tassign then begin
          advance st;
          expect_ident st
        end
        else inst_name
      in
      let inst_host =
        if at_ident st "on" then begin
          advance st;
          Some (expect_string st)
        end
        else None
      in
      expect st Token.Tsemi;
      instances := { Spec.inst_name; inst_module; inst_host } :: !instances;
      items ()
    | Token.Tident "bind" ->
      advance st;
      let b_from = expect_endpoint st in
      let b_to = expect_endpoint st in
      expect st Token.Tsemi;
      binds := { Spec.b_from; b_to } :: !binds;
      items ()
    | tok ->
      fail st
        (Printf.sprintf "unexpected %s in application specification"
           (Token.to_string tok))
  in
  items ();
  { Spec.app_name; instances = List.rev !instances; binds = List.rev !binds }

let parse_config src =
  let lex = Lexer.create src in
  let tok = Lexer.next lex in
  let st = { lex; tok; line = Lexer.line lex } in
  let modules = ref [] and apps = ref [] in
  let rec loop () =
    match st.tok with
    | Token.Teof -> ()
    | Token.Tmodule ->
      modules := parse_module st :: !modules;
      loop ()
    | Token.Tident "application" ->
      apps := parse_application st :: !apps;
      loop ()
    | tok ->
      fail st
        (Printf.sprintf "expected 'module' or 'application', found %s"
           (Token.to_string tok))
  in
  loop ();
  { Spec.modules = List.rev !modules; apps = List.rev !apps }
