module I = Dr_transform.Instrument
module Ast = Dr_lang.Ast
module Rg = Dr_analysis.Reconfig_graph

let monitor_compute =
  {|
module compute;

proc main() {
  var n: int;
  var response: float;
  mh_init();
  while (true) {
    while (mh_query("display")) {
      mh_read("display", n);
      compute(n, n, response);
      mh_write("display", response);
    }
    if (mh_query("sensor")) {
      compute(1, 1, response);
    }
    sleep(2);
  }
}

proc compute(num: int, n: int, ref rp: float) {
  var temper: int;
  if (n <= 0) { rp = 0.0; return; }
  compute(num, n - 1, rp);
  R: mh_read("sensor", temper);
  rp = rp + float(temper) / float(num);
}
|}

let prepared = lazy (Support.prepare monitor_compute [ Support.point "compute" "R" ])

let count_in_block pred block =
  let n = ref 0 in
  Ast.iter_stmts (fun s -> if pred s then incr n) block;
  !n

let is_capture_block (s : Ast.stmt) =
  match s.kind with
  | Ast.If (Var "mh_capturestack", body, []) ->
    List.exists
      (fun (b : Ast.stmt) ->
        match b.kind with Ast.BuiltinS ("mh_capture", _) -> true | _ -> false)
      body
  | _ -> false

let is_point_block (s : Ast.stmt) =
  match s.kind with
  | Ast.If (Var "mh_reconfig", body, []) ->
    List.exists
      (fun (b : Ast.stmt) ->
        match b.kind with Ast.BuiltinS ("mh_capture", _) -> true | _ -> false)
      body
  | _ -> false

let is_restore_block (s : Ast.stmt) =
  match s.kind with
  | Ast.If (Var "mh_restoring", body, []) ->
    List.exists
      (fun (b : Ast.stmt) ->
        match b.kind with Ast.BuiltinS ("mh_restore", _) -> true | _ -> false)
      body
  | _ -> false

let proc_of prog name = Option.get (Ast.find_proc prog name)

let test_flags_and_handler_added () =
  let p = (Lazy.force prepared).I.prepared_program in
  List.iter
    (fun flag ->
      match Ast.find_global p flag with
      | Some _ -> ()
      | None -> Alcotest.failf "missing flag global %s" flag)
    I.flag_globals;
  match Ast.find_proc p I.handler_proc_name with
  | Some handler -> (
    match handler.body with
    | [ { kind = Ast.Assign (Lvar "mh_reconfig", Bool true); _ } ] -> ()
    | _ -> Alcotest.fail "handler body should set mh_reconfig")
  | None -> Alcotest.fail "missing handler proc"

let test_paper_numbering () =
  (* main first in the source, as in Fig. 3, so edges are numbered as in
     Fig. 4: 1 and 2 in main, 3 for compute's self-call, 4 for R *)
  let graph = (Lazy.force prepared).I.graph in
  let kinds =
    List.map
      (function
        | Rg.Call_edge { index; src; _ } -> (index, src, "call")
        | Rg.Point_edge { index; src; _ } -> (index, src, "point"))
      graph.edges
  in
  Alcotest.(check (list (triple int string string)))
    "edges 1..4"
    [ (1, "main", "call"); (2, "main", "call"); (3, "compute", "call");
      (4, "compute", "point") ]
    kinds

let test_capture_blocks_placed () =
  let p = (Lazy.force prepared).I.prepared_program in
  let main = proc_of p "main" in
  let compute = proc_of p "compute" in
  Alcotest.(check int) "two call-edge capture blocks in main" 2
    (count_in_block is_capture_block main.body);
  Alcotest.(check int) "no point blocks in main" 0
    (count_in_block is_point_block main.body);
  Alcotest.(check int) "one call-edge capture block in compute" 1
    (count_in_block is_capture_block compute.body);
  Alcotest.(check int) "one point block in compute" 1
    (count_in_block is_point_block compute.body)

let test_restore_blocks_at_top () =
  let p = (Lazy.force prepared).I.prepared_program in
  let compute = proc_of p "compute" in
  (match compute.body with
  | first :: _ ->
    Alcotest.(check bool) "compute starts with restore block" true
      (is_restore_block first)
  | [] -> Alcotest.fail "empty compute");
  let main = proc_of p "main" in
  match main.body with
  | status_check :: restore :: signal_install :: _ ->
    (match status_check.kind with
    | Ast.If (Binop (Eq, Builtin ("mh_getstatus", []), Str "clone"), _, _) -> ()
    | _ -> Alcotest.fail "main should start with the clone-status check");
    Alcotest.(check bool) "then restore block" true (is_restore_block restore);
    (match signal_install.kind with
    | Ast.BuiltinS ("signal", [ Aexpr (Str h) ]) ->
      Alcotest.(check string) "installs handler" I.handler_proc_name h
    | _ -> Alcotest.fail "main should install the signal handler")
  | _ -> Alcotest.fail "main prelude too short"

let test_main_encodes () =
  let p = (Lazy.force prepared).I.prepared_program in
  let has_encode block =
    count_in_block
      (fun s -> match s.kind with Ast.BuiltinS ("mh_encode", _) -> true | _ -> false)
      block
  in
  Alcotest.(check int) "main capture blocks encode" 2 (has_encode (proc_of p "main").body);
  Alcotest.(check int) "compute never encodes" 0
    (has_encode (proc_of p "compute").body);
  let has_decode block =
    count_in_block
      (fun s -> match s.kind with Ast.BuiltinS ("mh_decode", _) -> true | _ -> false)
      block
  in
  Alcotest.(check int) "main decodes" 1 (has_decode (proc_of p "main").body);
  Alcotest.(check int) "compute never decodes" 0
    (has_decode (proc_of p "compute").body)

let test_generated_labels () =
  let p = (Lazy.force prepared).I.prepared_program in
  let labels proc = Ast.labels_in_block (proc_of p proc).body in
  Alcotest.(check bool) "main has _L1 and _L2" true
    (List.mem (I.generated_label 1) (labels "main")
    && List.mem (I.generated_label 2) (labels "main"));
  Alcotest.(check bool) "compute has _L3 and keeps R" true
    (List.mem (I.generated_label 3) (labels "compute")
    && List.mem "R" (labels "compute"))

let test_capture_sets () =
  let prepared = Lazy.force prepared in
  Alcotest.(check (list string)) "main captures locals (no globals present)"
    [ "n"; "response" ]
    (List.assoc "main" prepared.I.capture_sets);
  Alcotest.(check (list string)) "compute captures params then locals"
    [ "num"; "n"; "rp"; "temper" ]
    (List.assoc "compute" prepared.I.capture_sets)

let test_globals_captured_in_main () =
  let prepared =
    Support.prepare
      "module t;\nvar g: int = 1;\nproc main() { while (true) { R: sleep(1); } }"
      [ Support.point "main" "R" ]
  in
  Alcotest.(check (list string)) "globals appended to main's set" [ "g" ]
    (List.assoc "main" prepared.I.capture_sets)

let test_output_reparses_and_typechecks () =
  let p = (Lazy.force prepared).I.prepared_program in
  let printed = Dr_lang.Pretty.program_to_string p in
  let reparsed = Support.parse printed in
  Alcotest.(check bool) "reparses equal" true (Ast.equal_program p reparsed);
  Support.typecheck_ok reparsed

let test_untouched_procs () =
  (* procedures outside the reconfiguration graph are left alone *)
  let source =
    "module t;\n\
     proc pure(x: int): int { return x + 1; }\n\
     proc hot() { R: skip; }\n\
     proc main() { var y: int; y = pure(1); hot(); }"
  in
  let prepared = Support.prepare source [ Support.point "hot" "R" ] in
  let original = Support.parse source in
  let p = prepared.I.prepared_program in
  Alcotest.(check bool) "pure unchanged" true
    (Ast.equal_proc (proc_of original "pure") (proc_of p "pure"))

let test_reserved_names_rejected () =
  let reject source =
    match
      I.prepare (Support.parse source) ~points:[ Support.point "main" "R" ]
    with
    | Error e ->
      Alcotest.(check bool) "mentions reserved" true
        (let contains needle haystack =
           let n = String.length needle and h = String.length haystack in
           let rec go i =
             i + n <= h && (String.sub haystack i n = needle || go (i + 1))
           in
           n = 0 || go 0
         in
         contains "reserved" e)
    | Ok _ -> Alcotest.fail "expected rejection"
  in
  reject "module t;\nvar mh_reconfig: bool;\nproc main() { R: skip; }";
  reject "module t;\nproc mh_catchreconfig() { }\nproc main() { R: skip; }";
  reject "module t;\nproc main() { var mh_location: int; R: skip; }";
  reject "module t;\nproc main() { _L1: skip; R: skip; }"

let test_ill_typed_rejected () =
  match
    I.prepare
      (Support.parse "module t;\nproc main() { x = 1; R: skip; }")
      ~points:[ Support.point "main" "R" ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected typecheck rejection"

let test_dummy_arguments () =
  (* the restore re-invocation must replace faultable argument
     expressions (calls, division, indexing) with dummies, but keep
     variables, literals and safe arithmetic *)
  let source =
    {|
module t;

proc risky(): int { return 1; }

proc f(a: int, b: int, c: int, d: int, ref out: int) {
  R: out = a + b + c + d;
}

proc main() {
  var x: int;
  var arr: int[];
  var r: int;
  arr = alloc_int(4);
  while (true) {
    f(x, x + 1, arr[0], risky(), r);
  }
}
|}
  in
  let prepared = Support.prepare source [ Support.point "f" "R" ] in
  let main = proc_of prepared.I.prepared_program "main" in
  let restore_calls = ref [] in
  Ast.iter_stmts
    (fun s ->
      match s.kind with
      | Ast.If (Var "mh_restoring", body, []) ->
        Ast.iter_stmts
          (fun inner ->
            match inner.kind with
            | Ast.CallS ("f", args) -> restore_calls := args :: !restore_calls
            | _ -> ())
          body
      | _ -> ())
    main.body;
  match !restore_calls with
  | [ [ a; b; c; d; out ] ] ->
    Alcotest.(check bool) "variable kept" true (a = Ast.Var "x");
    Alcotest.(check bool) "safe arithmetic kept" true
      (b = Ast.Binop (Ast.Add, Var "x", Int 1));
    Alcotest.(check bool) "index dummied" true (c = Ast.Int 0);
    Alcotest.(check bool) "call dummied" true (d = Ast.Int 0);
    Alcotest.(check bool) "ref kept" true (out = Ast.Var "r")
  | calls -> Alcotest.failf "expected one restore call, got %d" (List.length calls)

let test_liveness_trims () =
  let source =
    {|
module t;

proc f(used: int, dead: int) {
  var live_later: int;
  var never: int;
  live_later = used;
  while (true) {
    R: print(live_later);
    sleep(1);
  }
}

proc main() { f(1, 2); }
|}
  in
  let with_liveness =
    Support.prepare ~options:{ I.default_options with use_liveness = true } source
      [ Support.point "f" "R" ]
  in
  let without =
    Support.prepare source [ Support.point "f" "R" ]
  in
  Alcotest.(check (list string)) "default keeps everything"
    [ "used"; "dead"; "live_later"; "never" ]
    (List.assoc "f" without.I.capture_sets);
  Alcotest.(check (list string)) "liveness keeps only the live"
    [ "live_later" ]
    (List.assoc "f" with_liveness.I.capture_sets)

let test_point_vars_validated () =
  let ok =
    I.prepare (Support.parse monitor_compute)
      ~points:
        [ { I.pt_proc = "compute"; pt_label = "R"; pt_vars = Some [ "num"; "n"; "rp" ] } ]
  in
  (match ok with Ok _ -> () | Error e -> Alcotest.failf "should accept: %s" e);
  match
    I.prepare (Support.parse monitor_compute)
      ~points:
        [ { I.pt_proc = "compute"; pt_label = "R"; pt_vars = Some [ "ghost" ] } ]
  with
  | Error e ->
    Alcotest.(check bool) "mentions variable" true
      (let contains needle haystack =
         let n = String.length needle and h = String.length haystack in
         let rec go i =
           i + n <= h && (String.sub haystack i n = needle || go (i + 1))
         in
         n = 0 || go 0
       in
       contains "ghost" e)
  | Ok _ -> Alcotest.fail "expected rejection of unknown state variable"

let test_multiple_points_share_call_captures () =
  (* two points reachable through the same call site must not duplicate
     that site's capture block (paper §3: "reconfiguration points can
     share capture blocks") *)
  let source =
    {|
module t;

proc worker(mode: int) {
  if (mode == 0) { R1: skip; } else { R2: skip; }
}

proc main() {
  while (true) {
    worker(0);
    sleep(1);
  }
}
|}
  in
  let prepared =
    Support.prepare source [ Support.point "worker" "R1"; Support.point "worker" "R2" ]
  in
  let main = proc_of prepared.I.prepared_program "main" in
  Alcotest.(check int) "single capture block at the shared call site" 1
    (count_in_block is_capture_block main.body)

let test_point_in_main_directly () =
  let source =
    "module t;\nvar count: int = 0;\nproc main() { while (true) { count = count + 1; R: sleep(1); } }"
  in
  let prepared = Support.prepare source [ Support.point "main" "R" ] in
  let main = proc_of prepared.I.prepared_program "main" in
  Alcotest.(check int) "point block present" 1 (count_in_block is_point_block main.body);
  (* the point block in main must encode before returning *)
  let encodes_in_point = ref false in
  Ast.iter_stmts
    (fun s ->
      if is_point_block s then
        match s.kind with
        | Ast.If (_, body, _) ->
          List.iter
            (fun (b : Ast.stmt) ->
              match b.kind with
              | Ast.BuiltinS ("mh_encode", _) -> encodes_in_point := true
              | _ -> ())
            body
        | _ -> ())
    main.body;
  Alcotest.(check bool) "encodes" true !encodes_in_point

let test_transparency_hotloop () =
  (* with no signal, the instrumented program prints exactly what the
     original prints *)
  let original = Dr_workloads.Synthetic.hotloop ~rounds:8 ~inner:5 in
  List.iter
    (fun placement ->
      match
        I.prepare original ~points:(Dr_workloads.Synthetic.hotloop_points placement)
      with
      | Error e -> Alcotest.failf "prepare failed: %s" e
      | Ok prepared ->
        let run program =
          let sio = Support.script_io () in
          let m = Dr_interp.Machine.create ~io:sio.Support.io program in
          Dr_interp.Machine.run ~max_steps:1_000_000 m;
          Support.printed sio
        in
        Alcotest.(check (list string)) "same output" (run original)
          (run prepared.I.prepared_program))
    [ `Inner; `Outer; `Rare ]

(* Robustness fuzzing: prepare must never raise on arbitrary ASTs — it
   either rejects with a message or returns a program that typechecks
   and round-trips through the printer. *)
let prop_prepare_total =
  Support.qcheck ~count:300 "prepare is total and sound on random ASTs"
    Gen.program
    (fun program ->
      (* nominate every label that exists as a point (if any) *)
      let points =
        List.concat_map
          (fun (p : Ast.proc) ->
            List.map
              (fun label ->
                { I.pt_proc = p.proc_name; pt_label = label; pt_vars = None })
              (Ast.labels_in_block p.body))
          program.procs
      in
      match I.prepare program ~points with
      | Error _ -> true  (* rejection with a message is fine *)
      | Ok prepared ->
        let out = prepared.I.prepared_program in
        (match Dr_lang.Typecheck.check out with
        | Ok () -> ()
        | Error _ -> QCheck2.Test.fail_report "instrumented output ill-typed");
        let printed = Dr_lang.Pretty.program_to_string out in
        (match Dr_lang.Parser.parse_program printed with
        | reparsed ->
          if not (Ast.equal_program out reparsed) then
            QCheck2.Test.fail_report "instrumented output does not round-trip"
        | exception _ ->
          QCheck2.Test.fail_report "instrumented output unparseable");
        true
      | exception e ->
        QCheck2.Test.fail_reportf "prepare raised: %s" (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Capture/restore bug sweep: signal-timing differentials.

   For every step count k we run the instrumented program standalone,
   deliver the reconfiguration signal after k steps, restore the
   divulged image into a clone, and require the combined output to
   match an unsignalled reference run.  Running the sweep on both the
   compiled machine and the AST reference machine makes each engine an
   oracle for the other. *)

type engine = {
  eng_name : string;
  eng_run_plain : Ast.program -> string list;
  eng_run_signalled : Ast.program -> int -> string list * bool;
      (* output incl. clone, and whether an image was divulged *)
}

let compiled_engine =
  let module M = Dr_interp.Machine in
  let finish label m =
    M.run ~max_steps:1_000_000 m;
    match M.status m with
    | M.Halted -> ()
    | s -> Alcotest.failf "%s not halted: %a" label M.pp_status s
  in
  { eng_name = "compiled";
    eng_run_plain =
      (fun program ->
        let sio = Support.script_io () in
        let m = M.create ~io:sio.Support.io program in
        finish "reference" m;
        Support.printed sio);
    eng_run_signalled =
      (fun program k ->
        let sio = Support.script_io () in
        let m = M.create ~io:sio.Support.io program in
        let steps = ref 0 in
        while M.status m = M.Ready && !steps < k do
          M.step m;
          incr steps
        done;
        M.deliver_signal m;
        finish "signalled run" m;
        match List.rev sio.Support.divulged with
        | [] -> (Support.printed sio, false)
        | [ image ] ->
          let cio = Support.script_io () in
          let clone = M.create ~status_attr:"clone" ~io:cio.Support.io program in
          M.feed_image clone image;
          finish "clone" clone;
          (Support.printed sio @ Support.printed cio, true)
        | images -> Alcotest.failf "divulged %d images" (List.length images)) }

let ast_engine =
  let module M = Dr_oracle.Ast_machine in
  let finish label m =
    M.run ~max_steps:1_000_000 m;
    match M.status m with
    | M.Halted -> ()
    | s -> Alcotest.failf "%s not halted: %a" label M.pp_status s
  in
  { eng_name = "ast";
    eng_run_plain =
      (fun program ->
        let sio = Support.script_io () in
        let m = M.create ~io:sio.Support.io program in
        finish "reference" m;
        Support.printed sio);
    eng_run_signalled =
      (fun program k ->
        let sio = Support.script_io () in
        let m = M.create ~io:sio.Support.io program in
        let steps = ref 0 in
        while M.status m = M.Ready && !steps < k do
          M.step m;
          incr steps
        done;
        M.deliver_signal m;
        finish "signalled run" m;
        match List.rev sio.Support.divulged with
        | [] -> (Support.printed sio, false)
        | [ image ] ->
          let cio = Support.script_io () in
          let clone = M.create ~status_attr:"clone" ~io:cio.Support.io program in
          M.feed_image clone image;
          finish "clone" clone;
          (Support.printed sio @ Support.printed cio, true)
        | images -> Alcotest.failf "divulged %d images" (List.length images)) }

let signal_sweep ?(max_k = 150) ~options source points =
  let prepared = Support.prepare ~options source points in
  let program = prepared.I.prepared_program in
  List.iter
    (fun eng ->
      let reference = eng.eng_run_plain program in
      let any_divulged = ref false in
      for k = 0 to max_k do
        let prints, divulged = eng.eng_run_signalled program k in
        if divulged then any_divulged := true;
        if prints <> reference then
          Alcotest.failf "[%s] k=%d: got [%s], want [%s]" eng.eng_name k
            (String.concat "; " prints)
            (String.concat "; " reference)
      done;
      Alcotest.(check bool)
        (eng.eng_name ^ ": some signal divulged an image")
        true !any_divulged)
    [ compiled_engine; ast_engine ];
  prepared

(* Regression (liveness at back edges): a declaration without an
   initialiser lowers to no instruction, so its frame slot carries the
   previous iteration's value around the loop back edge.  The liveness
   trim used to treat the bare decl as a definition and drop the
   variable from the capture set at a point inside the loop. *)
let test_noinit_decl_backedge () =
  ignore
    (signal_sweep
       ~options:{ I.default_options with use_liveness = true }
       {|module i;
proc main() {
  var i: int = 0;
  var s: int = 0;
  while (i < 5) {
    R: skip;
    var t: int;
    s = s + t;
    t = i * 10;
    i = i + 1;
  }
  print(s);
}|}
       [ Support.point "main" "R" ])

(* Same defect observed through a call edge instead of a point edge. *)
let test_noinit_decl_call_edge () =
  ignore
    (signal_sweep
       ~options:{ I.default_options with use_liveness = true }
       {|module j;
proc leaf() { R: skip; }
proc main() {
  var i: int = 0;
  var s: int = 0;
  while (i < 5) {
    leaf();
    var t: int;
    s = s + t;
    t = i * 10;
    i = i + 1;
  }
  print(s);
}|}
       [ Support.point "leaf" "R" ])

let shadowed_global_source =
  {|module g;
var counter: int = 100;
proc tick() { counter = counter + 1; R: skip; }
proc main() {
  var counter: int = 0;
  while (counter < 5) {
    tick();
    counter = counter + 1;
  }
  print(counter);
  report();
}
proc report() { print(counter); }|}

(* Regression (restore with shadowed names): main's capture list is
   params @ locals @ globals, so a main local shadowing a module global
   produced two records with the same name — and both capture and
   restore resolved to the local slot, silently losing the global's
   value across reconfiguration.  [prepare] now alpha-renames the
   shadowing local first. *)
let test_shadowed_global () =
  List.iter
    (fun use_liveness ->
      ignore
        (signal_sweep
           ~options:{ I.default_options with use_liveness }
           shadowed_global_source
           [ Support.point "tick" "R" ]))
    [ false; true ]

(* The renamed local must appear in main's capture set alongside the
   global, with no duplicate names left. *)
let test_shadow_rename_in_capture_set () =
  let prepared =
    Support.prepare shadowed_global_source [ Support.point "tick" "R" ]
  in
  let main_set =
    match List.assoc_opt "main" prepared.I.capture_sets with
    | Some vars -> vars
    | None -> Alcotest.failf "main has no capture set"
  in
  Alcotest.(check bool)
    "renamed local captured" true
    (List.mem "counter_l0" main_set);
  Alcotest.(check bool) "global captured" true (List.mem "counter" main_set);
  Alcotest.(check int) "no duplicate names"
    (List.length main_set)
    (List.length (List.sort_uniq String.compare main_set))

(* Shadowing across a recursive procedure with two reconfiguration
   points: the clone must rebuild the whole activation-record stack and
   still keep the shadowed global distinct from main's local. *)
let test_shadowed_global_recursive_two_points () =
  ignore
    (signal_sweep
       ~options:{ I.default_options with use_liveness = true }
       {|module g2;
var depth: int = 0;
proc dive(n: int, ref acc: int) {
  var here: int = n * 10;
  if (n > 0) {
    dive(n - 1, acc);
    R1: acc = acc + here;
  }
  depth = depth + 1;
  R2: skip;
}
proc main() {
  var depth: int = 0;
  var total: int = 0;
  while (depth < 3) {
    dive(2, total);
    depth = depth + 1;
  }
  print(depth);
  print(total);
  report();
}
proc report() { print(depth); }|}
       [ Support.point "dive" "R1"; Support.point "dive" "R2" ])

(* A local shadowing a parameter of the same procedure is statically
   illegal (locals are function-scoped), so that variant of the hazard
   cannot reach the transform at all. *)
let test_local_shadowing_param_rejected () =
  let errors =
    Support.typecheck_errors
      (Support.parse
         {|module bad;
proc f(x: int) {
  var x: int = 0;
  R: print(x);
}
proc main() { f(1); }|})
  in
  Alcotest.(check bool) "rejected" true (errors <> []);
  Alcotest.(check bool) "mentions duplicate" true
    (List.exists
       (fun m ->
         let has needle =
           let nl = String.length needle and ml = String.length m in
           let rec scan i = i + nl <= ml && (String.sub m i nl = needle || scan (i + 1)) in
           scan 0
         in
         has "duplicate")
       errors)

(* Regression (silent empty capture set): a point naming a procedure
   absent from the capture-set table must fail loudly, never validate
   vacuously. *)
let test_unknown_point_proc_loud () =
  let table = Hashtbl.create 4 in
  Hashtbl.replace table "main" [ "x"; "y" ];
  (match
     I.validate_point_vars
       [ { I.pt_proc = "mian"; pt_label = "R"; pt_vars = Some [ "x" ] } ]
       table
   with
  | Ok () -> Alcotest.failf "unknown procedure validated silently"
  | Error msg ->
    Alcotest.(check bool) "message names the procedure" true
      (let needle = "mian" in
       let nl = String.length needle and ml = String.length msg in
       let rec scan i = i + nl <= ml && (String.sub msg i nl = needle || scan (i + 1)) in
       scan 0));
  (* and the same point without declared vars is still an error: the
     table entry is missing, not merely unchecked *)
  match
    I.validate_point_vars
      [ { I.pt_proc = "mian"; pt_label = "R"; pt_vars = None } ]
      table
  with
  | Ok () -> Alcotest.failf "unknown procedure without pt_vars validated silently"
  | Error _ -> ()

let () =
  Alcotest.run "transform"
    [ ( "structure",
        [ Alcotest.test_case "flags and handler" `Quick test_flags_and_handler_added;
          Alcotest.test_case "paper numbering" `Quick test_paper_numbering;
          Alcotest.test_case "capture blocks" `Quick test_capture_blocks_placed;
          Alcotest.test_case "restore blocks" `Quick test_restore_blocks_at_top;
          Alcotest.test_case "main encodes/decodes" `Quick test_main_encodes;
          Alcotest.test_case "generated labels" `Quick test_generated_labels;
          Alcotest.test_case "capture sets" `Quick test_capture_sets;
          Alcotest.test_case "globals in main" `Quick test_globals_captured_in_main;
          Alcotest.test_case "untouched procs" `Quick test_untouched_procs;
          Alcotest.test_case "shared capture blocks" `Quick
            test_multiple_points_share_call_captures;
          Alcotest.test_case "point in main" `Quick test_point_in_main_directly ] );
      ( "validity",
        [ Alcotest.test_case "output reparses+typechecks" `Quick
            test_output_reparses_and_typechecks;
          Alcotest.test_case "reserved names" `Quick test_reserved_names_rejected;
          Alcotest.test_case "ill-typed input" `Quick test_ill_typed_rejected;
          Alcotest.test_case "point vars validated" `Quick test_point_vars_validated ] );
      ( "semantics",
        [ Alcotest.test_case "dummy arguments" `Quick test_dummy_arguments;
          Alcotest.test_case "liveness trimming" `Quick test_liveness_trims;
          Alcotest.test_case "transparency" `Quick test_transparency_hotloop ] );
      ( "bug sweep",
        [ Alcotest.test_case "no-init decl at back edge" `Quick
            test_noinit_decl_backedge;
          Alcotest.test_case "no-init decl at call edge" `Quick
            test_noinit_decl_call_edge;
          Alcotest.test_case "shadowed global" `Quick test_shadowed_global;
          Alcotest.test_case "shadow rename in capture set" `Quick
            test_shadow_rename_in_capture_set;
          Alcotest.test_case "recursive two-point shadow" `Quick
            test_shadowed_global_recursive_two_points;
          Alcotest.test_case "local shadowing param rejected" `Quick
            test_local_shadowing_param_rejected;
          Alcotest.test_case "unknown point proc is loud" `Quick
            test_unknown_point_proc_loud ] );
      ("properties", [ prop_prepare_total ]) ]
