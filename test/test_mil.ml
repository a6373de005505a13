module Spec = Dr_mil.Spec
module P = Dr_mil.Mil_parser
module Pretty = Dr_mil.Mil_pretty
module V = Dr_mil.Validate

let monitor_mil = Dr_workloads.Monitor.mil

let test_parse_monitor () =
  let config = P.parse_config monitor_mil in
  Alcotest.(check (list string)) "modules"
    [ "sensor"; "display"; "compute"; "compute_v2" ]
    (List.map (fun m -> m.Spec.ms_name) config.modules);
  Alcotest.(check (list string)) "apps" [ "monitor" ]
    (List.map (fun a -> a.Spec.app_name) config.apps);
  let compute = Option.get (Spec.find_module config "compute") in
  Alcotest.(check (option string)) "source" (Some "./compute.exe") compute.source;
  Alcotest.(check (option string)) "machine" (Some "hostA") compute.machine;
  Alcotest.(check int) "two interfaces" 2 (List.length compute.ifaces);
  (match compute.points with
  | [ { rp_label = "R"; rp_state = Some [ "num"; "n"; "rp" ] } ] -> ()
  | _ -> Alcotest.fail "reconfiguration point");
  let monitor = Option.get (Spec.find_app config "monitor") in
  Alcotest.(check int) "three instances" 3 (List.length monitor.instances);
  Alcotest.(check int) "two binds" 2 (List.length monitor.binds)

let test_interface_details () =
  let config = P.parse_config monitor_mil in
  let display = Option.get (Spec.find_module config "display") in
  match display.ifaces with
  | [ { if_name = "temper"; role = Spec.Client; pattern = [ Spec.Mint ];
        accepts = [ Spec.Mfloat ]; returns = [] } ] ->
    ()
  | _ -> Alcotest.fail "client interface shape"

let test_instance_aliases_and_hosts () =
  let config =
    P.parse_config
      {|
module m { define interface out pattern {integer}; }
module n { use interface in pattern {integer}; }
application app {
  instance a = m on "h1";
  instance b = n;
  bind "a out" "b in";
}
|}
  in
  let app = Option.get (Spec.find_app config "app") in
  (match Spec.find_instance app "a" with
  | Some { inst_module = "m"; inst_host = Some "h1"; _ } -> ()
  | _ -> Alcotest.fail "aliased instance");
  match Spec.find_instance app "b" with
  | Some { inst_module = "n"; inst_host = None; _ } -> ()
  | _ -> Alcotest.fail "default instance"

let test_roundtrip_monitor () =
  let config = P.parse_config monitor_mil in
  let printed = Pretty.config_to_string config in
  let reparsed = P.parse_config printed in
  Alcotest.(check string) "printer is a fixpoint" printed
    (Pretty.config_to_string reparsed)

let expect_parse_error source fragment =
  match P.parse_config source with
  | exception P.Error (message, _) ->
    let contains needle haystack =
      let n = String.length needle and h = String.length haystack in
      let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
      n = 0 || go 0
    in
    if not (contains fragment message) then
      Alcotest.failf "error %S lacks %S" message fragment
  | _ -> Alcotest.fail "expected parse error"

let test_parse_errors () =
  expect_parse_error "modul x {}" "expected 'module' or 'application'";
  expect_parse_error "module m { bogus interface x; }" "expected";
  expect_parse_error
    {|application a { bind "one" "two three"; }|}
    "must be \"<instance> <interface>\"";
  expect_parse_error "module m { source = 3; }" "expected string literal"

let error_of source =
  match P.parse_config source with
  | exception P.Error (message, line) ->
    Printf.sprintf "parse error at line %d: %s" line message
  | exception Dr_lang.Lexer.Error (message, line) ->
    Printf.sprintf "lexical error at line %d: %s" line message
  | _ -> "no error"

(* A malformed endpoint is reported on the line of its own string, not on
   the line of whatever follows the bind. *)
let test_endpoint_lines () =
  let config bind rest =
    "module m { use interface in pattern {integer}; }\napplication a {\n\
    \  instance x = m;\n" ^ bind ^ rest
  in
  let malformed line =
    Printf.sprintf
      "parse error at line %d: endpoint \"x\" must be \"<instance> <interface>\""
      line
  in
  Alcotest.(check string) "instance two lines on" (malformed 4)
    (error_of (config "  bind \"x\" \"x in\";\n" "\n\n  instance y = m;\n}\n"));
  Alcotest.(check string) "closing brace next" (malformed 4)
    (error_of (config "  bind \"x\" \"x in\";\n" "}\n"));
  Alcotest.(check string) "second endpoint on its own line" (malformed 5)
    (error_of (config "  bind \"x in\"\n    \"x\";\n" "}\n"))

(* Tokens are pulled as the parse goes, so the first error in the text is
   the one reported, whichever kind it is. *)
let test_first_error_wins () =
  let config line3 line5 =
    Printf.sprintf
      "module m { use interface in pattern {integer}; }\napplication a {\n  %s\n\
      \  instance x = m;\n  %s\n}\n"
      line3 line5
  in
  Alcotest.(check string) "parse error first"
    "parse error at line 3: expected identifier, found ;"
    (error_of (config "instance ;" "#"));
  Alcotest.(check string) "lexical error first"
    "lexical error at line 3: unexpected character '#'"
    (error_of (config "#" "instance ;"))

let validate_errors source =
  match V.validate (P.parse_config source) with
  | Ok _ -> Alcotest.fail "expected validation errors"
  | Error errors -> errors

let has_error fragment errors =
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    n = 0 || go 0
  in
  List.exists (contains fragment) errors

let test_validate_monitor_ok () =
  match V.validate (P.parse_config monitor_mil) with
  | Ok _ -> ()
  | Error errors -> Alcotest.failf "unexpected: %s" (String.concat "; " errors)

let test_validate_rejections () =
  Alcotest.(check bool) "unknown module" true
    (has_error "unknown module"
       (validate_errors {|application a { instance x = nosuch; }|}));
  Alcotest.(check bool) "duplicate instance" true
    (has_error "duplicate instance"
       (validate_errors
          {|module m { define interface o pattern {integer}; }
            application a { instance x = m; instance x = m; }|}));
  Alcotest.(check bool) "unknown interface" true
    (has_error "no interface"
       (validate_errors
          {|module m { define interface o pattern {integer}; }
            module n { use interface i pattern {integer}; }
            application a { instance m; instance n; bind "m ghost" "n i"; }|}));
  Alcotest.(check bool) "pattern mismatch" true
    (has_error "pattern mismatch"
       (validate_errors
          {|module m { define interface o pattern {integer}; }
            module n { use interface i pattern {float}; }
            application a { instance m; instance n; bind "m o" "n i"; }|}));
  Alcotest.(check bool) "direction" true
    (has_error "cannot send"
       (validate_errors
          {|module m { use interface i pattern {integer}; }
            module n { use interface i pattern {integer}; }
            application a { instance m; instance n; bind "m i" "n i"; }|}));
  Alcotest.(check bool) "client/server reply mismatch" true
    (has_error "reply pattern mismatch"
       (validate_errors
          {|module m { client interface c pattern {integer} accepts {float}; }
            module n { server interface s pattern {integer} returns {integer}; }
            application a { instance m; instance n; bind "m c" "n s"; }|}));
  Alcotest.(check bool) "server-to-client direction" true
    (has_error "client-to-server"
       (validate_errors
          {|module m { client interface c pattern {integer} accepts {float}; }
            module n { server interface s pattern {integer} returns {float}; }
            application a { instance m; instance n; bind "n s" "m c"; }|}));
  Alcotest.(check bool) "duplicate module" true
    (has_error "duplicate module" (validate_errors "module m { } module m { }"));
  Alcotest.(check bool) "client with returns" true
    (has_error "cannot declare"
       (validate_errors
          {|module m { client interface c pattern {integer} returns {float}; }|}))

let test_cross_check_program () =
  let config = P.parse_config monitor_mil in
  let compute_spec = Option.get (Spec.find_module config "compute") in
  let program = Support.parse Dr_workloads.Monitor.compute_source in
  (match V.check_program_against_spec compute_spec program with
  | Ok () -> ()
  | Error errors -> Alcotest.failf "should pass: %s" (String.concat "; " errors));
  (* a program using an undeclared interface is rejected *)
  let bad =
    Support.parse
      {|
module compute;
proc main() {
  var x: int;
  R: mh_read("ghost_iface", x);
}
|}
  in
  (match V.check_program_against_spec compute_spec bad with
  | Error errors ->
    Alcotest.(check bool) "undeclared interface" true
      (has_error "undeclared interface" errors)
  | Ok () -> Alcotest.fail "expected rejection");
  (* writing on a use-interface is rejected *)
  let wrong_dir =
    Support.parse
      {|
module compute;
proc main() {
  R: mh_write("sensor", 1);
}
|}
  in
  (match V.check_program_against_spec compute_spec wrong_dir with
  | Error errors ->
    Alcotest.(check bool) "direction misuse" true (has_error "writes on" errors)
  | Ok () -> Alcotest.fail "expected rejection");
  (* a missing reconfiguration label is rejected *)
  let no_label =
    Support.parse "module compute;\nproc main() { mh_write(\"display\", 1.0); }"
  in
  match V.check_program_against_spec compute_spec no_label with
  | Error errors ->
    Alcotest.(check bool) "missing label" true (has_error "no matching label" errors)
  | Ok () -> Alcotest.fail "expected rejection"

let test_state_vars_cross_checked () =
  let config =
    P.parse_config
      {|
module m {
  use interface in pattern {integer};
  reconfiguration point R state {ghost};
}
|}
  in
  let spec = Option.get (Spec.find_module config "m") in
  let program =
    Support.parse
      {|
module m;
proc main() {
  var x: int;
  R: mh_read("in", x);
}
|}
  in
  match V.check_program_against_spec spec program with
  | Error errors ->
    Alcotest.(check bool) "unknown state var" true (has_error "ghost" errors)
  | Ok () -> Alcotest.fail "expected rejection"

let test_type_keywords_in_patterns () =
  let config =
    P.parse_config
      {|module m {
          define interface a pattern {int};
          define interface b pattern {integer};
          define interface c pattern {string, boolean};
        }|}
  in
  let m = Option.get (Spec.find_module config "m") in
  let pattern name = (Option.get (Spec.find_iface m name)).Spec.pattern in
  Alcotest.(check bool) "int == integer" true (pattern "a" = pattern "b");
  Alcotest.(check bool) "string,boolean" true
    (pattern "c" = [ Spec.Mstr; Spec.Mbool ])

let prop_printer_fixpoint =
  Support.qcheck ~count:200 "MIL printer is a fixpoint" Gen.mil_config
    (fun config ->
      let once = Pretty.config_to_string config in
      match P.parse_config once with
      | reparsed -> String.equal once (Pretty.config_to_string reparsed)
      | exception e ->
        QCheck2.Test.fail_reportf "failed to reparse:\n%s\n%s" once
          (Printexc.to_string e))

let () =
  Alcotest.run "mil"
    [ ( "parsing",
        [ Alcotest.test_case "monitor config" `Quick test_parse_monitor;
          Alcotest.test_case "interface details" `Quick test_interface_details;
          Alcotest.test_case "instances" `Quick test_instance_aliases_and_hosts;
          Alcotest.test_case "type keywords" `Quick test_type_keywords_in_patterns;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip_monitor;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "endpoint lines" `Quick test_endpoint_lines;
          Alcotest.test_case "first error wins" `Quick test_first_error_wins ] );
      ( "validation",
        [ Alcotest.test_case "monitor ok" `Quick test_validate_monitor_ok;
          Alcotest.test_case "rejections" `Quick test_validate_rejections ] );
      ( "cross-check",
        [ Alcotest.test_case "program vs spec" `Quick test_cross_check_program;
          Alcotest.test_case "state vars" `Quick test_state_vars_cross_checked ] );
      ("properties", [ prop_printer_fixpoint ]) ]
