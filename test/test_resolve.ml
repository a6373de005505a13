(* Tests for the resolution pass (lib/interp/resolve.ml) and the
   resolved execution engine: slot assignment for shadowed names, goto
   into nested loop bodies after resolution, hot-swap of resolved code,
   the program cache, and a differential property — the resolved engine
   must produce instruction counts, prints, traces, statuses and final
   state identical to the AST-walking reference engine (the test-only
   oracle Dr_oracle.Ast_machine, test/oracle/ast_machine.ml) on
   the workload corpus and on random expression programs. *)

module Ast = Dr_lang.Ast
module Ir = Dr_interp.Ir
module Lower = Dr_interp.Lower
module Resolve = Dr_interp.Resolve
module Machine = Dr_interp.Machine
module Ast_machine = Dr_oracle.Ast_machine
module Cache = Dr_interp.Cache
module Value = Dr_state.Value
module Image = Dr_state.Image
module Synthetic = Dr_workloads.Synthetic
module Ring = Dr_workloads.Ring

(* ------------------------------------------------- differential driver *)

type outcome = {
  o_status : string;
  o_instrs : int;
  o_prints : string list;
  o_trace : string list;
  o_images : Image.t list;
  o_globals : (string * Value.t) list;
}

(* Run a program to quiescence, waking it from sleeps up to [wake_limit]
   times (optionally delivering the reconfiguration signal on wake
   [signal_at_wake]), recording every observable. *)
let drive_resolved ?signal_at_wake ?(wake_limit = 20) ?(max_steps = 20_000)
    ?(feeds = []) (program : Ast.program) =
  let sio = Support.script_io ~feeds () in
  let m = Machine.create ~io:sio.Support.io program in
  let trace = ref [] in
  Machine.set_tracer m
    (Some
       (fun proc pc instr ->
         trace := Fmt.str "%s:%d %a" proc pc Ir.pp_instr instr :: !trace));
  let wakes = ref 0 in
  let running = ref true in
  while !running do
    Machine.run ~max_steps m;
    match Machine.status m with
    | Machine.Sleeping _ when !wakes < wake_limit ->
      incr wakes;
      if signal_at_wake = Some !wakes then Machine.deliver_signal m;
      Machine.set_ready m
    | _ -> running := false
  done;
  { o_status = Fmt.str "%a" Machine.pp_status (Machine.status m);
    o_instrs = Machine.instr_count m;
    o_prints = Support.printed sio;
    o_trace = List.rev !trace;
    o_images = List.rev sio.Support.divulged;
    o_globals =
      List.map
        (fun (g : Ast.global) ->
          (g.gname, Option.value ~default:Value.Vnull (Machine.read_global m g.gname)))
        program.globals }

let drive_ast ?signal_at_wake ?(wake_limit = 20) ?(max_steps = 20_000)
    ?(feeds = []) (program : Ast.program) =
  let sio = Support.script_io ~feeds () in
  let m = Ast_machine.create ~io:sio.Support.io program in
  let trace = ref [] in
  Ast_machine.set_tracer m
    (Some
       (fun proc pc instr ->
         trace := Fmt.str "%s:%d %a" proc pc Ir.pp_instr instr :: !trace));
  let wakes = ref 0 in
  let running = ref true in
  while !running do
    Ast_machine.run ~max_steps m;
    match Ast_machine.status m with
    | Ast_machine.Sleeping _ when !wakes < wake_limit ->
      incr wakes;
      if signal_at_wake = Some !wakes then Ast_machine.deliver_signal m;
      Ast_machine.set_ready m
    | _ -> running := false
  done;
  { o_status = Fmt.str "%a" Ast_machine.pp_status (Ast_machine.status m);
    o_instrs = Ast_machine.instr_count m;
    o_prints = Support.printed sio;
    o_trace = List.rev !trace;
    o_images = List.rev sio.Support.divulged;
    o_globals =
      List.map
        (fun (g : Ast.global) ->
          ( g.gname,
            Option.value ~default:Value.Vnull (Ast_machine.read_global m g.gname)
          ))
        program.globals }

let outcome_equal a b =
  String.equal a.o_status b.o_status
  && a.o_instrs = b.o_instrs
  && List.equal String.equal a.o_prints b.o_prints
  && List.equal String.equal a.o_trace b.o_trace
  && List.length a.o_images = List.length b.o_images
  && List.for_all2 Image.equal a.o_images b.o_images
  && List.equal
       (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && Value.equal v1 v2)
       a.o_globals b.o_globals

let check_differential ?signal_at_wake ?wake_limit ?max_steps ?feeds name
    program =
  let a = drive_ast ?signal_at_wake ?wake_limit ?max_steps ?feeds program in
  let r = drive_resolved ?signal_at_wake ?wake_limit ?max_steps ?feeds program in
  Alcotest.(check string) (name ^ ": status") a.o_status r.o_status;
  Alcotest.(check int) (name ^ ": instr count") a.o_instrs r.o_instrs;
  Alcotest.(check (list string)) (name ^ ": prints") a.o_prints r.o_prints;
  Alcotest.(check (list string)) (name ^ ": trace") a.o_trace r.o_trace;
  Alcotest.(check bool) (name ^ ": images") true
    (List.length a.o_images = List.length r.o_images
    && List.for_all2 Image.equal a.o_images r.o_images);
  Alcotest.(check bool) (name ^ ": globals") true
    (List.equal
       (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && Value.equal v1 v2)
       a.o_globals r.o_globals)

(* -------------------------------------------------- resolver edge cases *)

let nested_goto_source =
  {|
module t;

proc main() {
  var i: int;
  var j: int;
  i = 0;
  goto Inner;
  while (i < 2) {
    j = 0;
    while (j < 3) {
      Inner: print("i=", i, ",j=", j);
      j = j + 1;
    }
    i = i + 1;
  }
  print("done");
}
|}

let test_goto_nested_loops () =
  (* after resolution, jumping into the middle of a nested loop body
     must land on the same slot-indexed instruction and run the loops
     to completion *)
  Alcotest.(check (list string))
    "prints"
    [ "i=0,j=0"; "i=0,j=1"; "i=0,j=2"; "i=1,j=0"; "i=1,j=1"; "i=1,j=2"; "done" ]
    (Support.prints_of nested_goto_source);
  check_differential "nested goto" (Support.parse nested_goto_source)

let shadow_source =
  {|
module t;

var x: int = 10;
var result: int = 0;

proc main() {
  var x: int;
  x = 42;
  result = x;
  sleep(1);
}
|}

let test_shadowed_slots () =
  let program = Support.parse shadow_source in
  Support.typecheck_ok program;
  let resolved = Resolve.resolve_program program (Lower.lower_program program) in
  let main =
    resolved.Resolve.rg_procs.(Hashtbl.find resolved.Resolve.rg_proc_index
                                 "main")
  in
  (* the local x gets a frame slot; the global x keeps its global slot *)
  Alcotest.(check bool) "local x has a frame slot" true
    (Hashtbl.mem main.Resolve.rp_slot_index "x");
  Alcotest.(check bool) "global x is indexed" true
    (Hashtbl.mem resolved.Resolve.rg_global_index "x");
  let writes_frame_slot =
    Array.exists
      (function
        | Resolve.Rassign (Resolve.Rlvar (Resolve.Sframe _), _) -> true
        | _ -> false)
      main.Resolve.rp_instrs
  in
  Alcotest.(check bool) "x = 42 targets the frame slot" true writes_frame_slot;
  (* behaviourally: while main sleeps, the local and the global are
     distinct cells, each readable through its single-probe API *)
  let sio = Support.script_io () in
  let m = Machine.create ~io:sio.Support.io program in
  Machine.run ~max_steps:1_000 m;
  (match Machine.status m with
  | Machine.Sleeping _ -> ()
  | s -> Alcotest.failf "expected sleeping, got %a" Machine.pp_status s);
  Alcotest.(check (option Support.value)) "read_local x" (Some (Value.Vint 42))
    (Machine.read_local m "x");
  Alcotest.(check (option Support.value)) "read_global x" (Some (Value.Vint 10))
    (Machine.read_global m "x");
  Alcotest.(check (option Support.value)) "read_global result"
    (Some (Value.Vint 42))
    (Machine.read_global m "result")

let test_forward_global_init () =
  (* a global initialiser referencing a later global stays unbound and
     falls back to the type default — in both engines *)
  let source =
    "module t;\nvar a: int = b + 1;\nvar b: int = 5;\nproc main() { print(a, \":\", b); }"
  in
  Alcotest.(check (list string)) "prints" [ "0:5" ] (Support.prints_of source);
  check_differential "forward global init" (Support.parse source)

(* ------------------------------------------------------------ hot swap *)

let test_replace_resolved_code () =
  (* replace a procedure mid-run with code that calls a brand-new
     procedure: the swapped code resolves against the machine's index,
     the unknown callee falls back to by-name lookup, and both engines
     agree on the result *)
  let source =
    {|
module t;

var out: int = 0;

proc helper(x: int): int {
  return x + 1;
}

proc main() {
  var i: int;
  i = 0;
  while (i < 4) {
    out = out + helper(i);
    sleep(1);
    i = i + 1;
  }
}
|}
  in
  let replacement =
    Support.parse
      {|
module t2;

proc helper(x: int): int {
  var y: int;
  y = boost(x);
  return y;
}

proc boost(x: int): int {
  return x * 10;
}
|}
  in
  let new_code = Lower.lower_program replacement in
  let run_with_swap (type m) (create : Ast.program -> m) ~run ~status ~set_ready
      ~replace ~instr_count ~read_global =
    let m = create (Support.parse source) in
    let swapped = ref false in
    let wakes = ref 0 in
    let running = ref true in
    while !running do
      run m;
      match status m with
      | `Sleeping when !wakes < 10 ->
        incr wakes;
        if not !swapped then begin
          swapped := true;
          Hashtbl.iter (fun _ code -> replace m code) new_code
        end;
        set_ready m
      | _ -> running := false
    done;
    (instr_count m, read_global m "out")
  in
  let resolved =
    run_with_swap
      (fun p -> Machine.create ~io:(Dr_interp.Io_intf.null ()) p)
      ~run:(fun m -> Machine.run ~max_steps:10_000 m)
      ~status:(fun m ->
        match Machine.status m with Machine.Sleeping _ -> `Sleeping | _ -> `Other)
      ~set_ready:Machine.set_ready ~replace:Machine.replace_proc_code
      ~instr_count:Machine.instr_count ~read_global:Machine.read_global
  in
  let reference =
    run_with_swap
      (fun p -> Ast_machine.create ~io:(Dr_interp.Io_intf.null ()) p)
      ~run:(fun m -> Ast_machine.run ~max_steps:10_000 m)
      ~status:(fun m ->
        match Ast_machine.status m with
        | Ast_machine.Sleeping _ -> `Sleeping
        | _ -> `Other)
      ~set_ready:Ast_machine.set_ready ~replace:Ast_machine.replace_proc_code
      ~instr_count:Ast_machine.instr_count ~read_global:Ast_machine.read_global
  in
  let instrs, out = resolved in
  let instrs', out' = reference in
  Alcotest.(check int) "instr count matches reference" instrs' instrs;
  Alcotest.(check (option Support.value)) "out matches reference" out' out;
  (* first iteration ran old helper (0+1), later ones the boosted chain *)
  Alcotest.(check (option Support.value)) "out value"
    (Some (Value.Vint (1 + 10 + 20 + 30)))
    out

(* ------------------------------------------------------ workload corpus *)

let test_corpus_differential () =
  check_differential "hotloop" (Synthetic.hotloop ~rounds:4 ~inner:4);
  check_differential "layered" (Synthetic.layered ~iterations:5);
  check_differential "layered_pointed" (Synthetic.layered_pointed ~iterations:4);
  check_differential "hoistable"
    (Synthetic.hoistable ~point:`Inner ~rounds:3 ~inner:3 ());
  check_differential "deeprec raw" ~wake_limit:5 (Synthetic.deeprec ~depth:4);
  check_differential "ring member" ~wake_limit:10
    ~feeds:[ ("in", [ Value.Vint 0; Value.Vint 1; Value.Vint 2 ]) ]
    (Support.parse (List.assoc "member" Ring.sources))

let test_corpus_capture_differential () =
  (* instrumented deeprec: signal on the second wake, so both engines
     run the handler, capture the full depth-6 stack and encode the
     image — traces, counts and the image itself must match *)
  let prepared =
    match
      Dr_transform.Instrument.prepare (Synthetic.deeprec ~depth:6)
        ~points:Synthetic.deeprec_points
    with
    | Ok p -> p.Dr_transform.Instrument.prepared_program
    | Error e -> Alcotest.failf "transform failed: %s" e
  in
  check_differential "deeprec capture" ~signal_at_wake:2 ~wake_limit:8 prepared

(* A NaN sleep would hand the scheduler a NaN wake-up time, which no
   event queue can order: both engines must crash on it, identically,
   before the print after it. *)
let test_nan_sleep_differential () =
  let program =
    Support.parse
      "module t;\nproc main() { print(\"a\"); sleep(0.0 / 0.0); print(\"b\"); }"
  in
  check_differential "nan sleep" program;
  let o = drive_resolved program in
  Alcotest.(check string) "crashed" "crashed(sleep of nan)" o.o_status;
  Alcotest.(check (list string)) "stopped at the sleep" [ "a" ] o.o_prints

(* ------------------------------------------------------- random programs *)

(* Random call-free-or-not expressions from the shared generator,
   dropped into a fixed harness program: globals covering every ident
   the generator can emit (including an array and a float), two of the
   four callable proc names defined (the others exercise the
   unknown-procedure path identically in both engines). Programs are
   deliberately NOT typechecked: runtime errors must also match. The
   int globals and half of the expressions hold ints outside the shared
   small-int table, where the resolved engine computes, compares and
   stores ints unboxed. main assigns the expression to a local and
   branches on it; [store] then assigns it through a by-reference
   parameter to a global, reads it back and updates it through the same
   reference. *)
let harness_globals =
  [ ("a", "int", "1"); ("b", "int", "0 - 2"); ("c", "int[]", "alloc_int(4)");
    ("x", "int", "1024"); ("y", "float", "2.5"); ("count", "int", "0");
    ("total", "int", "1000000"); ("foo_bar", "bool", "true");
    ("v1", "string", "\"v\"");
    ("tmp2", "int", "4611686018427387903") ]

let harness_program expr_src =
  let globals =
    String.concat ""
      (List.map
         (fun (n, ty, init) -> Printf.sprintf "var %s: %s = %s;\n" n ty init)
         harness_globals)
  in
  Printf.sprintf
    {|
module t;
%s
proc helper(k: int): int {
  return k + 1;
}

proc work(k: int, j: int): int {
  return k * j + 1;
}

proc store(ref dst: int) {
  dst = %s;
  print(str(dst));
  dst = dst * 3 - 1;
}

proc main() {
  var r: int;
  count = count + 1;
  r = %s;
  print(str(r));
  if (%s) {
    print("then");
  }
  store(total);
}
|}
    globals expr_src expr_src expr_src

(* Untypechecked programs can escape the Runtime_error net (e.g. a
   builtin applied to too few arguments raises [Failure "nth"] in both
   engines); the property demands the engines agree on the escaped
   exception too. *)
let safely drive program =
  match drive program with o -> Ok o | exception e -> Error (Printexc.to_string e)

let qcheck_random_exprs =
  let int_globals = [ "a"; "b"; "x"; "count"; "total"; "tmp2" ] in
  Support.qcheck ~count:400 ~print:Dr_lang.Pretty.expr_to_string
    "resolved = ast engine on random expressions"
    (QCheck2.Gen.oneof
       [ Gen.expr_over (QCheck2.Gen.oneof [ Gen.literal; Gen.wide_int ]);
         Gen.int_expr int_globals ])
    (fun e ->
      let source = harness_program (Dr_lang.Pretty.expr_to_string e) in
      let program = Support.parse source in
      let a = safely (drive_ast ~max_steps:5_000) program in
      let r = safely (drive_resolved ~max_steps:5_000) program in
      match (a, r) with
      | Ok a, Ok r -> outcome_equal a r
      | Error ea, Error er -> String.equal ea er
      | _ -> false)

(* --------------------------------------------------------- program cache *)

let test_cache_scaling () =
  (* the N=1000 ring: one member module, so exactly one lowering +
     resolution; all 1000 instances share the artifact *)
  Cache.reset ();
  let system = Ring.load_large ~n:1000 in
  let bus = Ring.start_large system ~n:1000 in
  Alcotest.(check int) "one compilation for 1000 instances" 1 (Cache.misses ());
  Alcotest.(check bool) "all instances live" true
    (List.for_all
       (fun m -> Option.is_some (Dr_bus.Bus.machine bus ~instance:m))
       (Ring.members ~n:1000));
  (* a second deployment of the same module text is a cache hit *)
  let system2 = Ring.load_large ~n:10 in
  let bus2 = Ring.start_large system2 ~n:10 in
  ignore bus2;
  Alcotest.(check int) "still one compilation" 1 (Cache.misses ());
  Alcotest.(check bool) "second deployment hit the cache" true
    (Cache.hits () >= 1);
  (* and the ring still works: tokens actually circulate *)
  Dr_bus.Bus.run ~max_events:2_000 bus;
  Alcotest.(check bool) "tokens circulated" true
    (Ring.total_passes bus ~instances:(Ring.members ~n:1000) > 0)

let () =
  Alcotest.run "resolve"
    [ ( "resolver",
        [ Alcotest.test_case "goto into nested loop bodies" `Quick
            test_goto_nested_loops;
          Alcotest.test_case "shadowed local vs global slots" `Quick
            test_shadowed_slots;
          Alcotest.test_case "forward global init" `Quick
            test_forward_global_init;
          Alcotest.test_case "hot-swap resolved code" `Quick
            test_replace_resolved_code ] );
      ( "differential",
        [ Alcotest.test_case "workload corpus" `Quick test_corpus_differential;
          Alcotest.test_case "capture/restore corpus" `Quick
            test_corpus_capture_differential;
          Alcotest.test_case "NaN sleep crashes" `Quick
            test_nan_sleep_differential;
          qcheck_random_exprs ] );
      ( "cache",
        [ Alcotest.test_case "N=1000 spawns share one artifact" `Quick
            test_cache_scaling ] ) ]
