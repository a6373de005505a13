(* Experiment harness: regenerates every figure of the paper (F1–F8),
   measures every quantitative claim of its Discussion section and every
   baseline comparison (D1–D8), and runs three ablations (A1 dummy
   arguments, A2 liveness trimming, A3 code-motion inhibition).
   See DESIGN.md §5 for the experiment index and EXPERIMENTS.md for the
   paper-vs-measured record. *)

module Bus = Dr_bus.Bus
module Machine = Dr_interp.Machine
module I = Dr_transform.Instrument
module Image = Dr_state.Image
module Value = Dr_state.Value
module Synthetic = Dr_workloads.Synthetic
module Monitor = Dr_workloads.Monitor

(* ------------------------------------------------------------ helpers *)

let section id title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s — %s\n" id title;
  Printf.printf "==============================================================\n"

let print_table headers rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      headers
  in
  let print_row cells =
    List.iteri
      (fun i cell -> Printf.printf "%-*s  " (List.nth widths i) cell)
      cells;
    print_newline ()
  in
  print_row headers;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

(* A machine driven by a scripted io; returns (machine, divulged ref,
   printed ref). *)
let standalone ?status_attr program =
  let divulged = ref [] in
  let printed = ref [] in
  let io =
    { (Dr_interp.Io_intf.null ()) with
      io_print = (fun line -> printed := line :: !printed);
      io_encode = (fun image -> divulged := image :: !divulged) }
  in
  (Machine.create ?status_attr ~io program, divulged, printed)

let prepare_exn ?options program points =
  match I.prepare ?options program ~points with
  | Ok prepared -> prepared
  | Error e -> failwith ("prepare: " ^ e)

let pct x = Printf.sprintf "%.2f%%" x

(* ================================================================ F1 *)

let fig1_monitor () =
  section "F1 (Fig. 1)" "The Monitor example: move compute to another machine";
  let system = Monitor.load () in
  let bus = Monitor.start system in
  Bus.run ~until:40.0 bus;
  let hosts_row () =
    List.map
      (fun inst ->
        [ inst;
          Option.value ~default:"?" (Bus.instance_host bus ~instance:inst) ])
      (Bus.instances bus)
  in
  print_endline "starting configuration (Fig. 1 left):";
  print_table [ "instance"; "host" ] (hosts_row ());
  let displayed () =
    List.filter_map Monitor.parse_displayed (Bus.outputs bus ~instance:"display")
  in
  let before = List.length (displayed ()) in
  (match
     Dynrecon.System.migrate bus ~instance:"compute" ~new_instance:"compute'"
       ~new_host:"hostB"
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  let migration_time = Bus.now bus in
  Bus.run ~until:(Bus.now bus +. 60.0) bus;
  print_endline "\nending configuration (Fig. 1 right):";
  print_table [ "instance"; "host" ] (hosts_row ());
  let avgs = displayed () in
  Printf.printf
    "\naverages before move: %d   after: %d   all correct: %b   (move at t=%.2f)\n"
    before
    (List.length avgs - before)
    (Monitor.averages_plausible ~n:4 (List.map snd avgs))
    migration_time

(* ================================================================ F2 *)

let fig2_mil () =
  section "F2 (Fig. 2)" "Configuration specification: parse, validate, round-trip";
  let config = Dr_mil.Mil_parser.parse_config Monitor.mil in
  (match Dr_mil.Validate.validate config with
  | Ok _ -> ()
  | Error es -> failwith (String.concat "; " es));
  let printed = Dr_mil.Mil_pretty.config_to_string config in
  let fixpoint =
    String.equal printed
      (Dr_mil.Mil_pretty.config_to_string (Dr_mil.Mil_parser.parse_config printed))
  in
  print_table
    [ "module"; "interfaces"; "reconfiguration points" ]
    (List.map
       (fun (m : Dr_mil.Spec.module_spec) ->
         [ m.ms_name;
           string_of_int (List.length m.ifaces);
           String.concat ", "
             (List.map (fun p -> p.Dr_mil.Spec.rp_label) m.points) ])
       config.modules);
  let app = List.hd config.apps in
  Printf.printf
    "\napplication %s: %d instances, %d bindings; printer fixpoint: %b\n"
    app.app_name (List.length app.instances) (List.length app.binds) fixpoint

(* ============================================================ F3 / F4 *)

let count_blocks program =
  let captures = ref 0 and points = ref 0 and restores = ref 0 in
  List.iter
    (fun (p : Dr_lang.Ast.proc) ->
      Dr_lang.Ast.iter_stmts
        (fun s ->
          match s.kind with
          | Dr_lang.Ast.If (Var "mh_capturestack", _, []) -> incr captures
          | Dr_lang.Ast.If (Var "mh_reconfig", _, []) -> incr points
          | Dr_lang.Ast.If (Var "mh_restoring", _, []) -> incr restores
          | _ -> ())
        p.body)
    program.Dr_lang.Ast.procs;
  (!captures, !points, !restores)

let fig34_transform () =
  section "F3/F4 (Figs. 3–4)" "Automatic module preparation: compute before/after";
  let original = Dr_lang.Parser.parse_program Monitor.compute_source in
  let prepared =
    prepare_exn original [ { I.pt_proc = "compute"; pt_label = "R"; pt_vars = None } ]
  in
  let loc program =
    List.length
      (String.split_on_char '\n' (Dr_lang.Pretty.program_to_string program))
  in
  let captures, points, restores = count_blocks prepared.I.prepared_program in
  print_table
    [ "property"; "original (Fig. 3)"; "prepared (Fig. 4)" ]
    [ [ "source lines"; string_of_int (loc original);
        string_of_int (loc prepared.I.prepared_program) ];
      [ "call-edge capture blocks"; "0"; string_of_int captures ];
      [ "point capture blocks"; "0"; string_of_int points ];
      [ "restore blocks"; "0"; string_of_int restores ];
      [ "flag globals"; "0"; string_of_int (List.length I.flag_globals) ] ];
  let reparsed =
    Dr_lang.Parser.parse_program
      (Dr_lang.Pretty.program_to_string prepared.I.prepared_program)
  in
  Printf.printf
    "\nprepared source re-parses equal: %b; typechecks: %b\n"
    (Dr_lang.Ast.equal_program prepared.I.prepared_program reparsed)
    (Dr_lang.Typecheck.check reparsed = Ok ())

(* ================================================================ F5 *)

let fig5_script () =
  section "F5 (Fig. 5)" "Replacement reconfiguration script: event trace";
  let system = Monitor.load () in
  let bus = Monitor.start system in
  Bus.run ~until:25.0 bus;
  (match
     Dynrecon.System.replace bus ~instance:"compute" ~new_instance:"compute'" ()
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  let interesting =
    [ "script"; "signal"; "state"; "bind"; "queue"; "lifecycle" ]
  in
  print_table [ "t"; "event"; "detail" ]
    (List.filter_map
       (fun (e : Dr_sim.Trace.entry) ->
         if List.mem e.category interesting && e.time > 0.0 then
           Some [ Printf.sprintf "%.2f" e.time; e.category; e.detail ]
         else None)
       (Dr_sim.Trace.entries (Bus.trace bus)))

(* ================================================================ F6 *)

let fig6_graph () =
  section "F6 (Fig. 6)" "Static call graph and reconfiguration graph";
  let program =
    Dr_lang.Parser.parse_program
      {|
module sample;

proc c() { }

proc a() {
  R1: skip;
  c();
}

proc b() {
  skip;
  R2: skip;
}

proc main() {
  a();
  c();
  b();
  a();
}
|}
  in
  let cg = Dr_analysis.Callgraph.build program in
  print_endline "static call graph edges:";
  print_table [ "caller"; "callee"; "line" ]
    (List.map
       (fun (s : Dr_analysis.Callgraph.site) ->
         [ s.caller; s.callee; string_of_int s.line ])
       (Dr_analysis.Callgraph.sites cg));
  match
    Dr_analysis.Reconfig_graph.build program ~points:[ ("a", "R1"); ("b", "R2") ]
  with
  | Error e -> failwith e
  | Ok rg ->
    Printf.printf "\nrelevant procedures: %s (c is excluded)\n"
      (String.concat ", " rg.relevant);
    print_endline "reconfiguration graph edges (i, Si):";
    print_table [ "edge"; "from"; "to"; "statement" ]
      (List.map
         (function
           | Dr_analysis.Reconfig_graph.Call_edge { index; src; callee; line; _ } ->
             [ string_of_int index; src; callee; "S" ^ string_of_int line ]
           | Dr_analysis.Reconfig_graph.Point_edge { index; src; rlabel; line } ->
             [ string_of_int index; src; "reconfig"; rlabel ^ "@S" ^ string_of_int line ])
         rg.edges)

(* ============================================================ F7 / F8 *)

let fig78_blocks () =
  section "F7/F8 (Figs. 7–8)" "Generated capture and restore blocks";
  let original = Dr_lang.Parser.parse_program Monitor.compute_source in
  let prepared =
    prepare_exn original [ { I.pt_proc = "compute"; pt_label = "R"; pt_vars = None } ]
  in
  let compute =
    Option.get (Dr_lang.Ast.find_proc prepared.I.prepared_program "compute")
  in
  let shown = ref 0 in
  print_endline "generated blocks in procedure compute:\n";
  Dr_lang.Ast.iter_stmts
    (fun s ->
      match s.kind with
      | Dr_lang.Ast.If ((Var "mh_capturestack" | Var "mh_reconfig" | Var "mh_restoring"), _, [])
        when !shown < 3 ->
        incr shown;
        print_endline (Dr_lang.Pretty.stmt_to_string s);
        print_newline ()
      | _ -> ())
    compute.body

(* ================================================================ D1 *)

let run_to_halt_count program =
  let m, _, _ = standalone program in
  Machine.run ~max_steps:100_000_000 m;
  assert (Machine.status m = Machine.Halted);
  Machine.instr_count m

let d1_flag_overhead () =
  section "D1 (§4)"
    "Run-time cost of preparation: flag tests only (overhead vs placement)";
  let rounds = 200 and inner = 50 in
  let original = Synthetic.hotloop ~rounds ~inner in
  let base = run_to_halt_count original in
  let rows =
    List.map
      (fun (name, placement) ->
        let prepared = prepare_exn original (Synthetic.hotloop_points placement) in
        let instrs = run_to_halt_count prepared.I.prepared_program in
        [ name; string_of_int base; string_of_int instrs;
          pct (100.0 *. float_of_int (instrs - base) /. float_of_int base) ])
      [ ("inner loop (hot)", `Inner); ("outer loop", `Outer);
        ("rare procedure", `Rare) ]
  in
  print_table
    [ "reconfiguration point"; "original instrs"; "prepared instrs"; "overhead" ]
    rows;
  print_endline
    "\n(claim: the run-time cost is merely that of periodically testing the\n\
    \ flags; it scales with how often the chosen point is executed)"

(* ================================================================ D2 *)

let d2_vs_checkpointing () =
  section "D2 (§4)"
    "Ours vs checkpointing: steady-state cost and cost at reconfiguration";
  let rounds = 200 and inner = 50 in
  let original = Synthetic.hotloop ~rounds ~inner in
  let base = run_to_halt_count original in
  let rows = ref [] in
  List.iter
    (fun interval ->
      let sio = Dr_interp.Io_intf.null () in
      let cp =
        Dr_baselines.Checkpoint.create ~interval ~io:sio original
      in
      Dr_baselines.Checkpoint.run cp ~max_steps:100_000_000;
      let stats = Dr_baselines.Checkpoint.stats cp in
      rows :=
        [ Printf.sprintf "checkpoint every %d" interval;
          Printf.sprintf "%.1f bytes/kinstr"
            (1000.0
            *. float_of_int stats.snapshot_bytes_total
            /. float_of_int stats.instructions_run);
          Printf.sprintf "%d snapshots" stats.checkpoints_taken;
          Printf.sprintf "up to %d instrs" interval ]
        :: !rows)
    [ 100; 500; 2000; 10000 ];
  (* ours: instrumented at the outer loop; one capture at reconfig *)
  let prepared = prepare_exn original (Synthetic.hotloop_points `Outer) in
  let instrs = run_to_halt_count prepared.I.prepared_program in
  let m, divulged, _ = standalone prepared.I.prepared_program in
  Machine.run ~max_steps:3000 m;
  Machine.deliver_signal m;
  let at_signal = Machine.instr_count m in
  Machine.run ~max_steps:100_000_000 m;
  let capture_cost = Machine.instr_count m - at_signal in
  let image_bytes =
    match !divulged with
    | [ image ] -> Image.byte_size image
    | _ -> 0
  in
  let ours_row =
    [ "prepared module (ours)";
      Printf.sprintf "%.1f extra instrs/kinstr"
        (1000.0 *. float_of_int (instrs - base) /. float_of_int base);
      Printf.sprintf "1 capture: %d instrs, %d bytes" capture_cost image_bytes;
      "none" ]
  in
  print_table
    [ "approach"; "steady-state cost"; "cost at reconfiguration"; "lost work" ]
    (List.rev (ours_row :: !rows));
  print_endline
    "\n(claim: ours pays only flag tests until a reconfiguration is requested;\n\
    \ checkpointing pays state-copy costs at regular intervals forever and\n\
    \ still loses the work since the last checkpoint)"

(* ================================================================ D3 *)

let d3_reconfig_delay () =
  section "D3 (§4)"
    "Reconfiguration delay vs placement of the reconfiguration point";
  let rounds = 120 and inner = 60 in
  let original = Synthetic.hotloop ~rounds ~inner in
  let offsets = [ 0; 500; 1500; 3000; 5000; 8000; 11000; 14000 ] in
  let rows =
    List.map
      (fun (name, placement) ->
        let prepared = prepare_exn original (Synthetic.hotloop_points placement) in
        let delays =
          List.filter_map
            (fun offset ->
              let m, divulged, _ = standalone prepared.I.prepared_program in
              Machine.run ~max_steps:offset m;
              if Machine.status m <> Machine.Ready then None
              else begin
                Machine.deliver_signal m;
                let at_signal = Machine.instr_count m in
                Machine.run ~max_steps:100_000_000 m;
                match !divulged with
                | [ _ ] -> Some (Machine.instr_count m - at_signal)
                | _ -> None (* finished before reaching a point *)
              end)
            offsets
        in
        let n = List.length delays in
        let mean =
          if n = 0 then 0.0
          else float_of_int (List.fold_left ( + ) 0 delays) /. float_of_int n
        in
        [ name;
          string_of_int n;
          (if n = 0 then "-" else string_of_int (List.fold_left min max_int delays));
          (if n = 0 then "-" else Printf.sprintf "%.0f" mean);
          (if n = 0 then "-" else string_of_int (List.fold_left max 0 delays)) ])
      [ ("inner loop (hot)", `Inner); ("outer loop", `Outer);
        ("rare procedure", `Rare) ]
  in
  print_table
    [ "placement"; "captures"; "min delay"; "mean delay"; "max delay" ]
    rows;
  print_endline
    "\n(delays in instructions from signal to divulged state; frequently\n\
    \ executed points respond faster, as §4 predicts)"

(* ================================================================ D4 *)

let d4_depth_sweep () =
  section "D4" "Capture/restore cost vs activation-record stack depth";
  let rows =
    List.map
      (fun depth ->
        let prepared =
          prepare_exn (Synthetic.deeprec ~depth) Synthetic.deeprec_points
        in
        let program = prepared.I.prepared_program in
        let m, divulged, _ = standalone program in
        Machine.run ~max_steps:100_000_000 m;
        Machine.deliver_signal m;
        Machine.set_ready m;
        let at_signal = Machine.instr_count m in
        Machine.run ~max_steps:100_000_000 m;
        let capture = Machine.instr_count m - at_signal in
        let image = List.hd !divulged in
        let bytes = Bytes.length (Dr_state.Codec.encode_abstract image) in
        let clone, _, _ = standalone program in
        Machine.feed_image clone image;
        Machine.run ~max_steps:100_000_000 clone;
        let restore = Machine.instr_count clone in
        [ string_of_int depth;
          string_of_int (Image.depth image);
          string_of_int capture;
          string_of_int restore;
          string_of_int bytes ])
      [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]
  in
  print_table
    [ "recursion depth"; "records"; "capture instrs"; "restore instrs";
      "image bytes (abstract)" ]
    rows;
  print_endline "\n(all three scale linearly with stack depth)"

let d4b_heap_sweep () =
  section "D4b" "Image size vs heap state (automatic heap-block capture)";
  let rows =
    List.map
      (fun cells ->
        let source =
          Printf.sprintf
            {|
module heapy;

var table: int[];

proc main() {
  var i: int;
  mh_init();
  table = alloc_int(%d);
  i = 0;
  while (i < %d) {
    table[i] = i * 3;
    i = i + 1;
  }
  while (true) {
    R: sleep(1);
  }
}
|}
            cells cells
        in
        let prepared =
          prepare_exn
            (Dr_lang.Parser.parse_program source)
            [ { I.pt_proc = "main"; pt_label = "R"; pt_vars = None } ]
        in
        let m, divulged, _ = standalone prepared.I.prepared_program in
        Machine.run ~max_steps:100_000_000 m;
        Machine.deliver_signal m;
        Machine.set_ready m;
        Machine.run ~max_steps:100_000_000 m;
        let image = List.hd !divulged in
        [ string_of_int cells;
          string_of_int (List.length image.Image.heap);
          string_of_int (Bytes.length (Dr_state.Codec.encode_abstract image)) ])
      [ 16; 64; 256; 1024; 4096 ]
  in
  print_table [ "heap cells"; "captured blocks"; "abstract bytes" ] rows;
  print_endline
    "\n(frame-capture instruction cost is independent of heap size — blocks\n\
    \ are gathered by reachability at encode time, so heap cost is pure\n\
    \ state volume, visible in the image bytes; the paper leaves heap\n\
    \ capture to the programmer, we automate it for reachable blocks)"

(* ================================================================ D5 *)

let d5_vs_proc_update () =
  section "D5 (§4 / [4])"
    "Procedure-level update (Frieder & Segal) vs statement-level points";
  let iterations = 2000 in
  let baseline change =
    let old_program = Synthetic.layered ~iterations in
    let new_program = Synthetic.layered_variant ~iterations ~change in
    let io = Dr_interp.Io_intf.null () in
    let machine = Machine.create ~io old_program in
    (* request the update while the program is already running *)
    Machine.run ~max_steps:25 machine;
    let updater =
      Dr_baselines.Proc_update.create ~machine ~old_program ~new_program
    in
    let progress = Dr_baselines.Proc_update.run updater ~max_steps:100_000_000 in
    (progress, Machine.status machine)
  in
  (* ours: delay from signal to capture, independent of what changed *)
  let prepared =
    prepare_exn (Synthetic.layered_pointed ~iterations) Synthetic.layered_points
  in
  let ours_delay =
    let m, divulged, _ = standalone prepared.I.prepared_program in
    Machine.run ~max_steps:500 m;
    Machine.deliver_signal m;
    let at_signal = Machine.instr_count m in
    Machine.run ~max_steps:100_000_000 m;
    match !divulged with
    | [ _ ] -> Machine.instr_count m - at_signal
    | _ -> -1
  in
  let rows =
    List.map
      (fun (name, change) ->
        let progress, status = baseline change in
        [ name;
          string_of_int progress.Dr_baselines.Proc_update.steps_run;
          (if status = Machine.Halted then "yes (program over)" else "no");
          string_of_int ours_delay ])
      [ ("leaf procedure", `Leaf); ("middle procedure", `Mid);
        ("main procedure", `Main) ]
  in
  print_table
    [ "changed procedure"; "baseline: instrs to update";
      "waited for termination?"; "ours: instrs to capture" ]
    rows;
  print_endline
    "\n(claim: bottom-up procedure replacement is quick for leaf changes but\n\
    \ a changed main cannot be updated until the program terminates; a\n\
    \ reconfiguration point reaches every case in roughly one iteration)"

(* ================================================================ D6 *)

let worker_source ~busy ~rest =
  (* rest = 0 means genuinely always-busy: no sleep at all (a sleeping
     instant would count as quiescent) *)
  let tail = if rest = 0 then "R: skip;" else Printf.sprintf "R: sleep(%d);" rest in
  Printf.sprintf
    {|
module worker;

var beats: int = 0;

proc main() {
  var j: int;
  mh_init();
  while (true) {
    j = 0;
    while (j < %d) { j = j + 1; }
    beats = beats + 1;
    %s
  }
}
|}
    busy tail

let d6_vs_quiescence () =
  section "D6 (§4 / [9])"
    "Module-level atomicity (wait for quiescence) vs module participation";
  let hosts = Monitor.hosts in
  let rows =
    List.map
      (fun (busy, rest) ->
        let source = worker_source ~busy ~rest in
        let program = Dr_lang.Parser.parse_program source in
        (* duty cycle under default params: busy_instrs × instr_cost vs
           the sleep *)
        let params = Bus.default_params in
        let busy_time = float_of_int (2 * busy) *. params.instr_cost in
        let duty = busy_time /. (busy_time +. float_of_int rest) in
        (* baseline: wait for quiescence (no instrumentation needed) *)
        let bus = Bus.create ~hosts () in
        (match Bus.register_program bus program with
        | Ok () -> ()
        | Error e -> failwith e);
        (match Bus.spawn bus ~instance:"w" ~module_name:"worker" ~host:"hostA" () with
        | Ok () -> ()
        | Error e -> failwith e);
        Bus.run ~until:10.0 bus;
        let asked = Bus.now bus in
        let result = ref None in
        Dr_baselines.Quiescence.update_when_quiescent bus ~instance:"w"
          ~new_instance:"w2" ~poll_interval:0.5 ~give_up_after:500.0
          ~on_done:(fun r -> result := Some r)
          ();
        Bus.run_while bus ~max_events:3_000_000 (fun () -> !result = None);
        let baseline =
          match !result with
          | Some (Ok o) when o.completed -> Printf.sprintf "%.1f" o.waited
          | Some (Ok _) -> "never (gave up)"
          | Some (Error e) -> "error: " ^ e
          | None -> "no answer"
        in
        (* ours: instrumented worker; signal and time to divulge *)
        let prepared =
          prepare_exn program [ { I.pt_proc = "main"; pt_label = "R"; pt_vars = None } ]
        in
        let bus2 = Bus.create ~hosts () in
        (match Bus.register_program bus2 prepared.I.prepared_program with
        | Ok () -> ()
        | Error e -> failwith e);
        (match Bus.spawn bus2 ~instance:"w" ~module_name:"worker" ~host:"hostA" () with
        | Ok () -> ()
        | Error e -> failwith e);
        Bus.run ~until:10.0 bus2;
        let t0 = Bus.now bus2 in
        let got = ref None in
        Bus.on_divulge bus2 ~instance:"w" (fun _ -> got := Some (Bus.now bus2));
        Bus.signal_reconfig bus2 ~instance:"w";
        Bus.run_while bus2 ~max_events:3_000_000 (fun () -> !got = None);
        let ours =
          match !got with
          | Some t -> Printf.sprintf "%.1f" (t -. t0)
          | None -> "?"
        in
        ignore asked;
        [ Printf.sprintf "busy=%d sleep=%d" busy rest;
          pct (100.0 *. duty); baseline; "no"; ours; "yes" ])
      [ (10, 20); (200, 10); (2000, 2); (4000, 0) ]
  in
  print_table
    [ "workload"; "duty cycle"; "quiescence wait (vt)"; "state kept";
      "ours: capture (vt)"; "state kept" ]
    rows;
  print_endline
    "\n(claim: without module participation an update must wait for the\n\
    \ module to stop executing — a busy module postpones it indefinitely —\n\
    \ and the replacement starts fresh; with participation the delay is\n\
    \ bounded by one pass to the next point and the state survives)"

(* ================================================================ D7 *)

let d7_heterogeneous () =
  section "D7 (§1.2/§5)" "Heterogeneous migration through the abstract format";
  let prepared = prepare_exn (Synthetic.deeprec ~depth:64) Synthetic.deeprec_points in
  let m, divulged, _ = standalone prepared.I.prepared_program in
  Machine.run ~max_steps:100_000_000 m;
  Machine.deliver_signal m;
  Machine.set_ready m;
  Machine.run ~max_steps:100_000_000 m;
  let image = List.hd !divulged in
  Printf.printf "state image: %d records, abstract encoding %d bytes\n\n"
    (Image.depth image)
    (Bytes.length (Dr_state.Codec.encode_abstract image));
  let archs = Dr_state.Arch.all in
  let rows =
    List.map
      (fun src ->
        let native =
          match Dr_state.Codec.Native.encode src image with
          | Ok b -> b
          | Error e -> failwith e
        in
        Printf.sprintf "%s (%d B)" src.Dr_state.Arch.arch_name (Bytes.length native)
        :: List.map
             (fun dst ->
               match Dr_state.Codec.Native.translate ~src ~dst native with
               | Error e -> "FAIL: " ^ e
               | Ok out -> (
                 match Dr_state.Codec.Native.decode dst out with
                 | Ok decoded when Image.equal decoded image ->
                   Printf.sprintf "ok (%d B)" (Bytes.length out)
                 | Ok _ -> "MISMATCH"
                 | Error e -> "FAIL: " ^ e))
             archs)
      archs
  in
  print_table
    ("native source \\ destination"
    :: List.map (fun a -> a.Dr_state.Arch.arch_name) archs)
    rows;
  print_endline
    "\n(every pair round-trips through the abstract format; 32-bit targets\n\
    \ use smaller native encodings, and refuse values that do not fit)"

(* ================================================================ D8 *)

let d8_vs_recompilation () =
  section "D8 (§4 / [10])"
    "Preparation at compile time (ours) vs migration-program generation \
     at migration time (Theimer & Hayes)";
  let depth = 32 in
  let prepared = prepare_exn (Synthetic.deeprec ~depth) Synthetic.deeprec_points in
  let m, divulged, _ = standalone prepared.I.prepared_program in
  Machine.run ~max_steps:10_000_000 m;
  Machine.deliver_signal m;
  Machine.set_ready m;
  Machine.run ~max_steps:10_000_000 m;
  let image = List.hd !divulged in
  let image_bytes = Bytes.length (Dr_state.Codec.encode_abstract image) in
  let migration_program =
    match Dr_baselines.Recompile.synthesize ~prepared ~image with
    | Ok p -> p
    | Error e -> failwith e
  in
  let program_source = Dr_lang.Pretty.program_to_string migration_program in
  (* both resume correctly; compare what must happen at migration time *)
  let clone, _, _ = standalone ~status_attr:"clone" prepared.I.prepared_program in
  Machine.feed_image clone image;
  Machine.run ~max_steps:10_000_000 clone;
  let ours_ok =
    match Machine.status clone with Machine.Sleeping _ -> true | _ -> false
  in
  let mig_machine, _, _ = standalone migration_program in
  Machine.run ~max_steps:10_000_000 mig_machine;
  let theirs_ok =
    match Machine.status mig_machine with Machine.Sleeping _ -> true | _ -> false
  in
  print_table
    [ "property"; "ours (prepare at compile time)"; "[10] (generate at migration time)" ]
    [ [ "work per migration"; "encode+ship image";
        "synthesize + re-parse + lower a fresh program" ];
      [ "artifact shipped";
        Printf.sprintf "%d-byte state image" image_bytes;
        Printf.sprintf "%d-byte specialised source (%d lines)"
          (String.length program_source)
          (List.length (String.split_on_char '\n' program_source)) ];
      [ "restore mechanism"; "shared restore blocks + restore buffer";
        "captured values baked in as literals" ];
      [ "clone resumes correctly"; string_of_bool ours_ok;
        string_of_bool theirs_ok ];
      [ "supports capture too?"; "yes (same blocks)";
        "no (restore-only, regenerated per migration)" ] ];
  print_endline
    "\n(§4: \"they prepare a migration program for only the specific\n\
    \ migration requested, thus must prepare it at migration time\"; we\n\
    \ prepare once, for all possible reconfigurations)"

(* ================================================================ A1 *)

let hazard_source =
  {|
module hazard;

var idx: int = 0;
var data: int[];

proc f(x: int) {
  idx = 99;
  while (true) {
    R: idx = idx + 0;
    sleep(1);
  }
}

proc main() {
  data = alloc_int(4);
  f(data[idx]);
}
|}

let a1_dummy_args_ablation () =
  section "A1 (ablation, §3)"
    "Dummy-argument substitution: what breaks without it";
  let run ~substitute =
    let options = { I.default_options with substitute_dummy_args = substitute } in
    let prepared =
      match
        I.prepare ~options
          (Dr_lang.Parser.parse_program hazard_source)
          ~points:[ { I.pt_proc = "f"; pt_label = "R"; pt_vars = None } ]
      with
      | Ok p -> p.I.prepared_program
      | Error e -> failwith e
    in
    let m, divulged, _ = standalone prepared in
    Machine.run ~max_steps:100_000 m;
    Machine.deliver_signal m;
    Machine.set_ready m;
    Machine.run ~max_steps:100_000 m;
    let clone, _, _ = standalone ~status_attr:"clone" prepared in
    Machine.feed_image clone (List.hd !divulged);
    Machine.run ~max_steps:100_000 clone;
    Fmt.str "%a" Machine.pp_status (Machine.status clone)
  in
  print_table
    [ "restore re-invocation"; "clone status after restoration" ]
    [ [ "with dummy substitution (ours)"; run ~substitute:true ];
      [ "re-evaluating original arguments"; run ~substitute:false ] ];
  print_endline
    "\n(the callee mutated a variable used in the caller's argument\n\
    \ expression before the capture; §3: \"their evaluation can cause a\n\
    \ run-time error that did not arise when they were evaluated with the\n\
    \ original state\")"

(* ================================================================ A2 *)

let a2_liveness_ablation () =
  section "A2 (ablation, §3)"
    "Live-variable trimming of capture sets: image-size effect";
  let source =
    {|
module fat;

var keep: int = 0;

proc work(x: int) {
  var big1: string;
  var big2: string;
  var big3: string;
  var live: int;
  big1 = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
  big2 = big1 ^ big1;
  big3 = big2 ^ big2;
  live = x + len_of(big3);
  while (true) {
    R: keep = keep + live;
    sleep(1);
  }
}

proc len_of(s: string): int {
  return 1;
}

proc main() {
  work(7);
}
|}
  in
  let measure use_liveness =
    let options = { I.default_options with use_liveness } in
    let prepared =
      match
        I.prepare ~options
          (Dr_lang.Parser.parse_program source)
          ~points:[ { I.pt_proc = "work"; pt_label = "R"; pt_vars = None } ]
      with
      | Ok p -> p
      | Error e -> failwith e
    in
    let m, divulged, _ = standalone prepared.I.prepared_program in
    Machine.run ~max_steps:100_000 m;
    Machine.deliver_signal m;
    Machine.set_ready m;
    Machine.run ~max_steps:100_000 m;
    let image = List.hd !divulged in
    ( List.length (List.assoc "work" prepared.I.capture_sets),
      Bytes.length (Dr_state.Codec.encode_abstract image) )
  in
  let full_vars, full_bytes = measure false in
  let live_vars, live_bytes = measure true in
  print_table
    [ "capture set"; "variables in work"; "abstract image bytes" ]
    [ [ "all params+locals (default)"; string_of_int full_vars;
        string_of_int full_bytes ];
      [ "live variables only"; string_of_int live_vars;
        string_of_int live_bytes ] ];
  print_endline
    "\n(§3: \"data-flow analysis could be used to determine the set of live\n\
    \ variables\" — implemented as an option; dead string buffers vanish\n\
    \ from the image)"

(* ================================================================ A3 *)

let a3_optimization_inhibition () =
  section "A3 (ablation, §4)"
    "Reconfiguration points inhibit code motion — and placement fixes it";
  let rounds = 100 and inner = 50 in
  let measure ?(instrument = false) program =
    let program =
      if instrument then
        (prepare_exn program Synthetic.hoistable_points).I.prepared_program
      else program
    in
    let m, _, _ = standalone program in
    Machine.run ~max_steps:100_000_000 m;
    Machine.instr_count m
  in
  let base = measure (Synthetic.hoistable ~rounds ~inner ()) in
  let rows = ref [] in
  let row name program ~instrument =
    let optimized, stats = Dr_opt.Optimize.optimize program in
    let instrs = measure ~instrument optimized in
    rows :=
      [ name;
        string_of_int stats.hoisted;
        string_of_int stats.blocked_by_labels;
        string_of_int instrs;
        pct (100.0 *. float_of_int (instrs - base) /. float_of_int base) ]
      :: !rows
  in
  row "no point, optimised" (Synthetic.hoistable ~rounds ~inner ())
    ~instrument:false;
  row "point INSIDE hot loop, optimised"
    (Synthetic.hoistable ~point:`Inner ~rounds ~inner ())
    ~instrument:true;
  row "point in outer loop, optimised"
    (Synthetic.hoistable ~point:`Outer ~rounds ~inner ())
    ~instrument:true;
  print_table
    [ "program"; "hoisted"; "loops pinned"; "instrs"; "vs unoptimised" ]
    (List.rev !rows);
  Printf.printf "\n(unoptimised, no point: %d instrs)\n" base;
  print_endline
    "(§4: \"it could prohibit certain compiler optimizations such as code\n\
    \ motion ... it is preferable to place reconfiguration points outside of\n\
    \ computationally intensive loops, so that the code executed most often\n\
    \ can be optimized as much as possible\" — the outer-loop placement gets\n\
    \ both the optimisation and the reconfigurability)"

let all () =
  fig1_monitor ();
  fig2_mil ();
  fig34_transform ();
  fig5_script ();
  fig6_graph ();
  fig78_blocks ();
  d1_flag_overhead ();
  d2_vs_checkpointing ();
  d3_reconfig_delay ();
  d4_depth_sweep ();
  d4b_heap_sweep ();
  d5_vs_proc_update ();
  d6_vs_quiescence ();
  d7_heterogeneous ();
  d8_vs_recompilation ();
  a1_dummy_args_ablation ();
  a2_liveness_ablation ();
  a3_optimization_inhibition ()
