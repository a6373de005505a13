(* Interpreter engine comparison: the production engine (Machine:
   resolved slot-indexed code, superinstruction dispatch) against the
   original AST-walking engine (the test-only oracle Ast_machine), on
   the D1 hot loop (instrs/sec) and depth-64 capture/restore. Emits
   BENCH_interp.json next to bench_output.txt so the perf trajectory is
   tracked across PRs.

   Run with: dune exec bench/main.exe -- interp

   Gates: exits non-zero if the two engines execute different numbers
   of instructions on any row (the differential-correctness spot
   check; the full property suites live in test/test_resolve.ml and
   test/test_fusion.ml), or if the production engine is slower than the
   AST engine on the hot loop. *)

module Machine = Dr_interp.Machine
module Ast_machine = Dr_oracle.Ast_machine
module Synthetic = Dr_workloads.Synthetic
module I = Dr_transform.Instrument

let null_io = Dr_interp.Io_intf.null ()

let prepare_exn program points =
  match I.prepare program ~points with
  | Ok prepared -> prepared
  | Error e -> failwith e

(* ------------------------------------------------------- measurement *)

type sample = {
  s_name : string;
  s_engine : string;
  s_runs : int;
  s_instrs_per_run : int;
  s_secs : float;  (* total measured wall-clock over all runs *)
  s_rate : float;  (* instructions per second *)
}

(* [run ()] returns (instructions executed, seconds) for one timed
   window; repeat until [min_time] has accumulated. One warm-up run is
   discarded. *)
let measure ~name ~engine ~min_time run =
  ignore (run ());
  let runs = ref 0 in
  let instrs = ref 0 in
  let per_run = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < min_time do
    let n, dt = run () in
    incr runs;
    per_run := n;
    instrs := !instrs + n;
    elapsed := !elapsed +. dt
  done;
  { s_name = name;
    s_engine = engine;
    s_runs = !runs;
    s_instrs_per_run = !per_run;
    s_secs = !elapsed;
    s_rate = float_of_int !instrs /. !elapsed }

let timed f =
  let t0 = Unix.gettimeofday () in
  let n = f () in
  let t1 = Unix.gettimeofday () in
  (n, t1 -. t0)

(* ---------------------------------------------------------- hot loop *)

let hotloop_resolved program () =
  timed (fun () ->
      let m = Machine.create ~io:null_io program in
      Machine.run ~max_steps:100_000_000 m;
      (match Machine.status m with
      | Machine.Halted -> ()
      | s -> Fmt.failwith "resolved hotloop: %a" Machine.pp_status s);
      Machine.instr_count m)

let hotloop_ast program () =
  timed (fun () ->
      let m = Ast_machine.create ~io:null_io program in
      Ast_machine.run ~max_steps:100_000_000 m;
      (match Ast_machine.status m with
      | Ast_machine.Halted -> ()
      | s -> Fmt.failwith "ast hotloop: %a" Ast_machine.pp_status s);
      Ast_machine.instr_count m)

(* --------------------------------------------- capture/restore depth *)

(* Drive a prepared deeprec to its reconfiguration loop, signal, and
   time the capture + encode (the timed window starts at the signal). *)
let capture_resolved prepared () =
  let divulged = ref [] in
  let io =
    { null_io with
      Dr_interp.Io_intf.io_encode = (fun image -> divulged := image :: !divulged)
    }
  in
  let m = Machine.create ~io prepared in
  Machine.run ~max_steps:10_000_000 m;
  Machine.deliver_signal m;
  Machine.set_ready m;
  let before = Machine.instr_count m in
  let result =
    timed (fun () ->
        Machine.run ~max_steps:10_000_000 m;
        Machine.instr_count m - before)
  in
  if !divulged = [] then failwith "capture_resolved: no image divulged";
  result

let capture_ast prepared () =
  let divulged = ref [] in
  let io =
    { null_io with
      Dr_interp.Io_intf.io_encode = (fun image -> divulged := image :: !divulged)
    }
  in
  let m = Ast_machine.create ~io prepared in
  Ast_machine.run ~max_steps:10_000_000 m;
  Ast_machine.deliver_signal m;
  Ast_machine.set_ready m;
  let before = Ast_machine.instr_count m in
  let result =
    timed (fun () ->
        Ast_machine.run ~max_steps:10_000_000 m;
        Ast_machine.instr_count m - before)
  in
  if !divulged = [] then failwith "capture_ast: no image divulged";
  result

(* A state image captured once, fed to fresh clones for the restore
   measurement (images are engine-independent). *)
let image_of prepared =
  let divulged = ref [] in
  let io =
    { null_io with
      Dr_interp.Io_intf.io_encode = (fun image -> divulged := image :: !divulged)
    }
  in
  let m = Machine.create ~io prepared in
  Machine.run ~max_steps:10_000_000 m;
  Machine.deliver_signal m;
  Machine.set_ready m;
  Machine.run ~max_steps:10_000_000 m;
  match !divulged with
  | image :: _ -> image
  | [] -> failwith "image_of: no image divulged"

let restore_resolved prepared image () =
  let clone = Machine.create ~status_attr:"clone" ~io:null_io prepared in
  Machine.feed_image clone image;
  timed (fun () ->
      Machine.run ~max_steps:10_000_000 clone;
      Machine.instr_count clone)

let restore_ast prepared image () =
  let clone = Ast_machine.create ~status_attr:"clone" ~io:null_io prepared in
  Ast_machine.feed_image clone image;
  timed (fun () ->
      Ast_machine.run ~max_steps:10_000_000 clone;
      Ast_machine.instr_count clone)

(* -------------------------------------------------------------- main *)

let rate_str r =
  if r >= 1e6 then Printf.sprintf "%.2fM" (r /. 1e6)
  else if r >= 1e3 then Printf.sprintf "%.0fk" (r /. 1e3)
  else Printf.sprintf "%.0f" r

let all () =
  print_newline ();
  print_endline "==============================================================";
  print_endline "Interpreter engines: AST-walking (reference) vs resolved IR";
  print_endline "==============================================================";
  let rounds, inner = (200, 200) in
  let min_time = 1.0 in
  let hotloop = Synthetic.hotloop ~rounds ~inner in
  let deeprec =
    (prepare_exn (Synthetic.deeprec ~depth:64) Synthetic.deeprec_points)
      .I
      .prepared_program
  in
  let image = image_of deeprec in
  let pairs =
    [ (Printf.sprintf "d1_hotloop_%dx%d" rounds inner,
       measure ~name:"hotloop" ~engine:"ast" ~min_time (hotloop_ast hotloop),
       measure ~name:"hotloop" ~engine:"resolved" ~min_time
         (hotloop_resolved hotloop));
      ("capture_depth64",
       measure ~name:"capture" ~engine:"ast" ~min_time (capture_ast deeprec),
       measure ~name:"capture" ~engine:"resolved" ~min_time
         (capture_resolved deeprec));
      ("restore_depth64",
       measure ~name:"restore" ~engine:"ast" ~min_time
         (restore_ast deeprec image),
       measure ~name:"restore" ~engine:"resolved" ~min_time
         (restore_resolved deeprec image)) ]
  in
  (* Both engines must execute the exact same instruction stream
     (superinstruction dispatch counts each member of a run). *)
  List.iter
    (fun (name, ast, resolved) ->
      if ast.s_instrs_per_run <> resolved.s_instrs_per_run then
        failwith
          (Printf.sprintf "%s: engines disagree on instruction count (%d vs %d)"
             name ast.s_instrs_per_run resolved.s_instrs_per_run))
    pairs;
  Printf.printf "%-24s %12s %12s %12s %8s\n" "workload" "instrs/run" "ast i/s"
    "resolved i/s" "res/ast";
  Printf.printf "%s\n" (String.make 72 '-');
  List.iter
    (fun (name, ast, resolved) ->
      Printf.printf "%-24s %12d %12s %12s %7.2fx\n" name ast.s_instrs_per_run
        (rate_str ast.s_rate) (rate_str resolved.s_rate)
        (resolved.s_rate /. ast.s_rate))
    pairs;
  let sample_json s =
    Json_out.obj
      [ ("name", Json_out.str s.s_name);
        ("engine", Json_out.str s.s_engine);
        ("runs", Json_out.int s.s_runs);
        ("instrs_per_run", Json_out.int s.s_instrs_per_run);
        ("seconds", Json_out.float s.s_secs);
        ("instrs_per_sec", Json_out.float s.s_rate) ]
  in
  let json =
    Json_out.obj
      [ ("suite", Json_out.str "interp");
        ( "samples",
          Json_out.arr
            (List.concat_map
               (fun (_, ast, resolved) ->
                 [ sample_json ast; sample_json resolved ])
               pairs) );
        ( "speedup",
          Json_out.obj
            (List.map
               (fun (name, ast, resolved) ->
                 (name, Json_out.float (resolved.s_rate /. ast.s_rate)))
               pairs) ) ]
  in
  Json_out.write "BENCH_interp.json" json;
  (* Gate on the hot loop (the steady-state throughput metric; the
     capture/restore windows are too short to gate on reliably): the
     production engine must beat the AST engine. *)
  List.iter
    (fun (name, ast, resolved) ->
      if String.starts_with ~prefix:"d1" name && resolved.s_rate < ast.s_rate
      then begin
        Printf.eprintf
          "FAIL: resolved engine slower than AST engine on %s (%.0f < %.0f instrs/s)\n"
          name resolved.s_rate ast.s_rate;
        exit 1
      end)
    pairs
