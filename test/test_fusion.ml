(* Superinstruction dispatch (lib/interp/resolve.ml fused tables +
   lib/interp/machine.ml run dispatch) is what every untraced machine
   runs, the bus's included, so it must be observationally invisible.
   A tracer makes the machine dispatch one instruction at a time, and
   test_resolve.ml ties that traced engine to the AST oracle; here the
   untraced engine has to produce instruction counts, prints, statuses,
   divulged images and final globals identical to its own traced
   execution — on the workload corpus, on random expression programs,
   and under adversarial quantum budgets, Machine.step (a budget of
   one) included: a fused run must never overrun the quantum it was
   dispatched in. *)

module Ast = Dr_lang.Ast
module Resolve = Dr_interp.Resolve
module Machine = Dr_interp.Machine
module Value = Dr_state.Value
module Image = Dr_state.Image
module Synthetic = Dr_workloads.Synthetic
module Ring = Dr_workloads.Ring

type outcome = {
  o_status : string;
  o_instrs : int;
  o_prints : string list;
  o_images : Image.t list;
  o_globals : (string * Value.t) list;
  o_hooks : int;  (* tracer calls; 0 untraced *)
}

(* Run a program to quiescence under the resolved engine, waking it
   from sleeps up to [wake_limit] times (optionally delivering the
   reconfiguration signal on wake [signal_at_wake]). [traced] attaches
   a tracer that only counts its calls: the per-instruction dispatch.
   Untraced, the machine runs as every bus machine does. [quantum] is
   the per-run step budget — small odd values force fused runs to butt
   against the budget boundary — and [stepped] drives the machine by
   [Machine.step] instead. No run may execute more than its budget. *)
let drive ~traced ?signal_at_wake ?(wake_limit = 20) ?(quantum = 20_000)
    ?(stepped = false) ?(feeds = []) (program : Ast.program) =
  let sio = Support.script_io ~feeds () in
  let m = Machine.create ~io:sio.Support.io program in
  let hooks = ref 0 in
  if traced then Machine.set_tracer m (Some (fun _ _ _ -> incr hooks));
  let budget = if stepped then 1 else quantum in
  let wakes = ref 0 in
  let running = ref true in
  let rounds = ref 0 in
  while !running && !rounds < 1_000_000 do
    incr rounds;
    let before = Machine.instr_count m in
    if stepped then Machine.step m else Machine.run ~max_steps:quantum m;
    if Machine.instr_count m - before > budget then
      Alcotest.failf "a budget of %d ran %d instructions" budget
        (Machine.instr_count m - before);
    match Machine.status m with
    | Machine.Sleeping _ when !wakes < wake_limit ->
      incr wakes;
      if signal_at_wake = Some !wakes then Machine.deliver_signal m;
      Machine.set_ready m
    | Machine.Ready -> ()
    | _ -> running := false
  done;
  { o_status = Fmt.str "%a" Machine.pp_status (Machine.status m);
    o_instrs = Machine.instr_count m;
    o_prints = Support.printed sio;
    o_images = List.rev sio.Support.divulged;
    o_globals =
      List.map
        (fun (g : Ast.global) ->
          (g.gname, Option.value ~default:Value.Vnull (Machine.read_global m g.gname)))
        program.globals;
    o_hooks = !hooks }

let outcome_equal a b =
  String.equal a.o_status b.o_status
  && a.o_instrs = b.o_instrs
  && List.equal String.equal a.o_prints b.o_prints
  && List.length a.o_images = List.length b.o_images
  && List.for_all2 Image.equal a.o_images b.o_images
  && List.equal
       (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && Value.equal v1 v2)
       a.o_globals b.o_globals

let check_differential ?signal_at_wake ?wake_limit ?quantum ?stepped ?feeds
    name program =
  let traced =
    drive ~traced:true ?signal_at_wake ?wake_limit ?quantum ?stepped ?feeds
      program
  in
  let fused =
    drive ~traced:false ?signal_at_wake ?wake_limit ?quantum ?stepped ?feeds
      program
  in
  Alcotest.(check string) (name ^ ": status") traced.o_status fused.o_status;
  Alcotest.(check int) (name ^ ": instr count") traced.o_instrs fused.o_instrs;
  Alcotest.(check (list string))
    (name ^ ": prints") traced.o_prints fused.o_prints;
  Alcotest.(check bool) (name ^ ": images") true
    (List.length traced.o_images = List.length fused.o_images
    && List.for_all2 Image.equal traced.o_images fused.o_images);
  Alcotest.(check bool) (name ^ ": globals") true
    (List.equal
       (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && Value.equal v1 v2)
       traced.o_globals fused.o_globals)

(* ------------------------------------------------------ workload corpus *)

let test_corpus_differential () =
  check_differential "hotloop" (Synthetic.hotloop ~rounds:4 ~inner:4);
  check_differential "layered" (Synthetic.layered ~iterations:5);
  check_differential "layered_pointed" (Synthetic.layered_pointed ~iterations:4);
  check_differential "hoistable"
    (Synthetic.hoistable ~point:`Inner ~rounds:3 ~inner:3 ());
  check_differential "deeprec raw" ~wake_limit:5 (Synthetic.deeprec ~depth:4);
  check_differential "deeprec payload" ~wake_limit:5
    (Synthetic.deeprec_payload ~depth:4 ~payload:3);
  check_differential "ring member" ~wake_limit:10
    ~feeds:[ ("in", [ Value.Vint 0; Value.Vint 1; Value.Vint 2 ]) ]
    (Support.parse (List.assoc "member" Ring.sources))

let test_capture_differential () =
  (* instrumented deeprec with the signal delivered mid-flight: the
     fused engine must unwind, capture and encode the very same image *)
  let prepared =
    match
      Dr_transform.Instrument.prepare (Synthetic.deeprec ~depth:6)
        ~points:Synthetic.deeprec_points
    with
    | Ok p -> p.Dr_transform.Instrument.prepared_program
    | Error e -> Alcotest.failf "transform failed: %s" e
  in
  check_differential "deeprec capture" ~signal_at_wake:2 ~wake_limit:8 prepared

let test_quantum_boundaries () =
  (* tiny and prime quantum budgets, and Machine.step: a fused run near
     the boundary must fall back to single-instruction execution, never
     overrun (drive checks every run), and the counts must stay
     identical to the traced engine under the same budget *)
  let program = Synthetic.hotloop ~rounds:3 ~inner:5 in
  List.iter
    (fun quantum ->
      check_differential
        (Printf.sprintf "hotloop quantum=%d" quantum)
        ~quantum program)
    [ 1; 2; 3; 7; 13 ];
  check_differential "hotloop Machine.step" ~stepped:true program

let test_tracer_bypasses_fusion () =
  (* a tracer is the per-instruction path: its hook fires exactly once
     per executed instruction, so no fused run executes under it, and
     the traced run ends exactly as the untraced, fused one *)
  let program = Synthetic.hotloop ~rounds:3 ~inner:4 in
  let traced = drive ~traced:true program in
  let fused = drive ~traced:false program in
  Alcotest.(check int) "one hook call per instruction" traced.o_instrs
    traced.o_hooks;
  Alcotest.(check bool) "traced outcome = untraced outcome" true
    (outcome_equal traced fused)

let test_fused_tables_built () =
  (* the hot loop really is covered: its resolved program must carry at
     least one multi-instruction Fcjump_run (the loop head) *)
  let program = Synthetic.hotloop ~rounds:3 ~inner:4 in
  let code = Dr_interp.Lower.lower_program program in
  let resolved = Resolve.resolve_program program code in
  let runs =
    Array.fold_left
      (fun acc (rproc : Resolve.rproc) ->
        Array.fold_left
          (fun acc f ->
            match f with
            | Some (Resolve.Fcjump_run _ as fu) ->
              acc + Resolve.fused_length fu
            | _ -> acc)
          acc rproc.Resolve.rp_fused)
      0 resolved.Resolve.rg_procs
  in
  Alcotest.(check bool) "a loop-head run exists" true (runs >= 3)

(* ------------------------------------------------------- random programs *)

let harness_globals =
  [ ("a", "int", "1"); ("b", "int", "2"); ("c", "int[]", "alloc_int(4)");
    ("x", "int", "4"); ("y", "float", "2.5"); ("count", "int", "0");
    ("total", "int", "7"); ("foo_bar", "bool", "true");
    ("v1", "string", "\"v\"");
    ("tmp2", "int", "10") ]

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

proc main() {
  var r: int;
  count = count + 1;
  r = %s;
  print(str(r));
}
|}
    globals expr_src

(* untypechecked programs may escape the Runtime_error net; the engines
   must agree on the escaped exception too *)
let safely drive program =
  match drive program with o -> Ok o | exception e -> Error (Printexc.to_string e)

let qcheck_random_exprs =
  Support.qcheck ~count:200 "fused = unfused engine on random expressions"
    Gen.expr (fun e ->
      let source = harness_program (Dr_lang.Pretty.expr_to_string e) in
      let program = Support.parse source in
      let traced = safely (drive ~traced:true ~quantum:5_000) program in
      let fused = safely (drive ~traced:false ~quantum:5_000) program in
      match (traced, fused) with
      | Ok a, Ok b -> outcome_equal a b
      | Error ea, Error eb -> String.equal ea eb
      | _ -> false)

let () =
  Alcotest.run "fusion"
    [ ( "differential",
        [ Alcotest.test_case "workload corpus" `Quick test_corpus_differential;
          Alcotest.test_case "instrumented capture" `Quick
            test_capture_differential;
          Alcotest.test_case "quantum boundaries" `Quick test_quantum_boundaries
        ] );
      ( "dispatch",
        [ Alcotest.test_case "tracer bypasses fusion" `Quick
            test_tracer_bypasses_fusion;
          Alcotest.test_case "fused tables built" `Quick test_fused_tables_built
        ] );
      ("random", [ qcheck_random_exprs ]) ]
