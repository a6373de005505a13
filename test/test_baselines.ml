module Machine = Dr_interp.Machine
module Checkpoint = Dr_baselines.Checkpoint
module Quiescence = Dr_baselines.Quiescence
module Proc_update = Dr_baselines.Proc_update
module Bus = Dr_bus.Bus

(* ------------------------------------------------------------ checkpoint *)

let counting_program iterations =
  Support.parse
    (Printf.sprintf
       "module work;\nvar done_marker: int = 0;\nproc main() { var i: int; while (i < %d) { i = i + 1; } done_marker = i; print(i); }"
       iterations)

let test_checkpoint_cadence () =
  let sio = Support.script_io () in
  let cp = Checkpoint.create ~interval:100 ~io:sio.Support.io (counting_program 200) in
  Checkpoint.run cp ~max_steps:1_000_000;
  let stats = Checkpoint.stats cp in
  Alcotest.(check bool) "halted" true (Machine.status (Checkpoint.machine cp) = Machine.Halted);
  let expected = stats.instructions_run / 100 in
  Alcotest.(check bool)
    (Printf.sprintf "snapshot count ~ instructions/interval (%d vs %d)"
       stats.checkpoints_taken expected)
    true
    (abs (stats.checkpoints_taken - expected) <= 1);
  Alcotest.(check bool) "cost accumulates" true (stats.snapshot_cost > 0.0)

let test_checkpoint_interval_tradeoff () =
  let run interval =
    let sio = Support.script_io () in
    let cp = Checkpoint.create ~interval ~io:sio.Support.io (counting_program 500) in
    Checkpoint.run cp ~max_steps:1_000_000;
    Checkpoint.stats cp
  in
  let fine = run 50 and coarse = run 500 in
  Alcotest.(check bool) "finer interval costs more" true
    (fine.snapshot_cost > coarse.snapshot_cost);
  Alcotest.(check bool) "finer interval snapshots more" true
    (fine.checkpoints_taken > coarse.checkpoints_taken)

let test_checkpoint_rollback_loses_work () =
  let sio = Support.script_io () in
  let cp = Checkpoint.create ~interval:100 ~io:sio.Support.io (counting_program 1000) in
  Checkpoint.run cp ~max_steps:350;
  let sio2 = Support.script_io () in
  match Checkpoint.rollback cp ~io:sio2.Support.io with
  | None -> Alcotest.fail "no checkpoint to roll back to"
  | Some (restored, lost) ->
    Alcotest.(check bool) "some work lost" true (lost > 0);
    Alcotest.(check bool) "bounded by interval" true (lost <= 100);
    (* the restored machine finishes correctly, repeating the lost work *)
    Machine.run ~max_steps:1_000_000 restored;
    Alcotest.(check (list string)) "correct final state" [ "1000" ]
      (Support.printed sio2)

let test_checkpoint_no_rollback_before_first () =
  let sio = Support.script_io () in
  let cp = Checkpoint.create ~interval:1000 ~io:sio.Support.io (counting_program 10) in
  (* runs to completion in < 1000 instructions: no checkpoint taken *)
  Checkpoint.run cp ~max_steps:50;
  match Checkpoint.rollback cp ~io:sio.Support.io with
  | None -> ()
  | Some _ -> Alcotest.fail "unexpected checkpoint"

let test_checkpoint_rejects_bad_interval () =
  let sio = Support.script_io () in
  match Checkpoint.create ~interval:0 ~io:sio.Support.io (counting_program 1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "interval 0 accepted"

(* ----------------------------------------------------------- quiescence *)

let idle_server =
  {|
module idler;
var served: int = 0;
proc main() {
  var x: int;
  mh_init();
  while (true) {
    while (mh_query("in")) {
      mh_read("in", x);
      served = served + 1;
    }
    sleep(5);
  }
}
|}

let busy_server =
  {|
module busy;
proc main() {
  var i: int;
  mh_init();
  while (true) {
    i = i + 1;
  }
}
|}

let hosts = Dr_workloads.Monitor.hosts

let test_quiescent_update_succeeds () =
  let bus = Bus.create ~hosts () in
  (match Bus.register_program bus (Support.parse idle_server) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "register: %s" e);
  (match Bus.spawn bus ~instance:"s" ~module_name:"idler" ~host:"hostA" () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "spawn: %s" e);
  Bus.add_route bus ~src:("feed", "out") ~dst:("s", "in");
  Bus.run ~until:20.0 bus;
  let result = ref None in
  Quiescence.update_when_quiescent bus ~instance:"s" ~new_instance:"s2"
    ~on_done:(fun r -> result := Some r)
    ();
  Bus.run_while bus ~max_events:100_000 (fun () -> !result = None);
  (match !result with
  | Some (Ok outcome) ->
    Alcotest.(check bool) "completed" true outcome.completed;
    Alcotest.(check bool) "replacement running" true
      (List.mem "s2" (Bus.instances bus));
    Alcotest.(check bool) "old gone" true (not (List.mem "s" (Bus.instances bus)));
    (* routes retargeted *)
    Alcotest.(check (list (pair string string))) "route moved" [ ("s2", "in") ]
      (Bus.routes_from bus ("feed", "out"))
  | Some (Error e) -> Alcotest.failf "update: %s" e
  | None -> Alcotest.fail "did not finish");
  (* crucially: no state transfer — the fresh instance lost the counter.
     (That is the documented limitation of module-level atomicity.) *)
  match Bus.machine bus ~instance:"s2" with
  | Some m ->
    Alcotest.check Support.value "state lost" (Dr_state.Value.Vint 0)
      (Option.value ~default:(Dr_state.Value.Vint (-1)) (Machine.read_global m "served"))
  | None -> Alcotest.fail "no machine"

let test_busy_module_never_quiesces () =
  let bus = Bus.create ~hosts () in
  (match Bus.register_program bus (Support.parse busy_server) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "register: %s" e);
  (match Bus.spawn bus ~instance:"b" ~module_name:"busy" ~host:"hostA" () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "spawn: %s" e);
  let result = ref None in
  Quiescence.update_when_quiescent bus ~instance:"b" ~new_instance:"b2"
    ~give_up_after:50.0
    ~on_done:(fun r -> result := Some r)
    ();
  Bus.run_while bus ~max_events:500_000 (fun () -> !result = None);
  match !result with
  | Some (Ok outcome) ->
    Alcotest.(check bool) "gave up" false outcome.completed;
    Alcotest.(check bool) "waited the full budget" true (outcome.waited >= 50.0);
    Alcotest.(check bool) "old still running" true
      (List.mem "b" (Bus.instances bus))
  | Some (Error e) -> Alcotest.failf "unexpected error: %s" e
  | None -> Alcotest.fail "did not finish"

let test_quiescence_requires_empty_queues () =
  let bus = Bus.create ~hosts () in
  (match Bus.register_program bus (Support.parse idle_server) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "register: %s" e);
  (match Bus.spawn bus ~instance:"s" ~module_name:"idler" ~host:"hostA" () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "spawn: %s" e);
  Bus.run ~until:3.0 bus;
  (* while sleeping, a pending message means NOT quiescent *)
  Bus.inject bus ~dst:("s", "in") (Dr_state.Value.Vint 1);
  Alcotest.(check bool) "pending message blocks quiescence" false
    (Quiescence.is_quiescent bus ~instance:"s" ~ifaces:[ "in" ])

(* --------------------------------------------------------- proc update *)

let make_update ~iterations ~change =
  let old_program = Dr_workloads.Synthetic.layered ~iterations in
  let new_program = Dr_workloads.Synthetic.layered_variant ~iterations ~change in
  let sio = Support.script_io () in
  let machine = Machine.create ~io:sio.Support.io old_program in
  (Proc_update.create ~machine ~old_program ~new_program, machine, sio)

let test_changed_set_detection () =
  let updater, _, _ = make_update ~iterations:10 ~change:`Leaf in
  Alcotest.(check (list string)) "leaf only" [ "leaf" ]
    (Proc_update.changed_procs updater);
  let updater, _, _ = make_update ~iterations:10 ~change:`Mid in
  Alcotest.(check (list string)) "mid only" [ "mid" ]
    (Proc_update.changed_procs updater);
  let updater, _, _ = make_update ~iterations:10 ~change:`Main in
  Alcotest.(check (list string)) "main only" [ "main" ]
    (Proc_update.changed_procs updater)

let test_leaf_update_fast () =
  let updater, machine, _ = make_update ~iterations:1000 ~change:`Leaf in
  let progress = Proc_update.run updater ~max_steps:2_000_000 in
  Alcotest.(check bool) "completed" true progress.completed;
  Alcotest.(check bool) "long before termination" true
    (Machine.status machine = Machine.Ready);
  Alcotest.(check (list string)) "leaf swapped" [ "leaf" ] progress.replaced

let test_main_update_waits_for_termination () =
  (* the paper: "when the main procedure has changed, the update cannot
     complete until the program terminates" *)
  let updater, machine, _ = make_update ~iterations:500 ~change:`Main in
  (* run a while: main is always on the stack, so nothing happens *)
  let rec spin n =
    if n > 0 && Machine.status machine = Machine.Ready then begin
      Proc_update.step updater;
      spin (n - 1)
    end
  in
  spin 1000;
  Alcotest.(check bool) "not completed while running" false
    (Proc_update.progress updater).completed;
  (* run to termination: only then can main be replaced *)
  let progress = Proc_update.run updater ~max_steps:10_000_000 in
  Alcotest.(check bool) "machine finished" true (Machine.status machine = Machine.Halted);
  Alcotest.(check bool) "completed at termination" true progress.completed

let test_bottom_up_ordering () =
  (* when both leaf and mid change, mid may only be swapped after leaf *)
  let old_program = Dr_workloads.Synthetic.layered ~iterations:300 in
  let new_program =
    Support.parse
      (Dr_lang.Pretty.program_to_string
         (Dr_workloads.Synthetic.layered_variant ~iterations:300 ~change:`Leaf))
  in
  (* additionally change mid *)
  let new_program =
    { new_program with
      procs =
        List.map
          (fun (p : Dr_lang.Ast.proc) ->
            if p.proc_name = "mid" then
              { p with
                body =
                  p.body
                  @ [ Dr_lang.Ast.stmt (Dr_lang.Ast.Return (Some (Dr_lang.Ast.Int 0))) ] }
            else p)
          new_program.procs }
  in
  let sio = Support.script_io () in
  let machine = Machine.create ~io:sio.Support.io old_program in
  let updater = Proc_update.create ~machine ~old_program ~new_program in
  Alcotest.(check (list string)) "both changed" [ "leaf"; "mid" ]
    (Proc_update.changed_procs updater);
  let progress = Proc_update.run updater ~max_steps:10_000_000 in
  Alcotest.(check bool) "completed" true progress.completed;
  Alcotest.(check (list string)) "bottom-up: leaf before mid" [ "leaf"; "mid" ]
    progress.replaced

let test_new_code_takes_effect () =
  (* after the update, calls use the new implementation: outputs differ
     from a pure old run and match a pure new run's tail behaviour *)
  let old_program = Dr_workloads.Synthetic.layered ~iterations:50 in
  let new_program = Dr_workloads.Synthetic.layered_variant ~iterations:50 ~change:`Leaf in
  let run_pure program =
    let sio = Support.script_io () in
    let m = Machine.create ~io:sio.Support.io program in
    Machine.run ~max_steps:1_000_000 m;
    Support.printed sio
  in
  let pure_old = run_pure old_program in
  let pure_new = run_pure new_program in
  Alcotest.(check bool) "programs differ" true (pure_old <> pure_new);
  let sio = Support.script_io () in
  let machine = Machine.create ~io:sio.Support.io old_program in
  let updater = Proc_update.create ~machine ~old_program ~new_program in
  let progress = Proc_update.run updater ~max_steps:10_000_000 in
  Alcotest.(check bool) "completed" true progress.completed;
  Machine.run ~max_steps:1_000_000 machine;
  let mixed = Support.printed sio in
  (* updated early (first step), so the whole run used the new leaf *)
  Alcotest.(check (list string)) "behaves as new version" pure_new mixed

(* ----------------------------------------------------- recompilation *)

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

let test_recompile_monitor_mid_recursion () =
  let prepared =
    Support.prepare monitor_compute [ Support.point "compute" "R" ]
  in
  let sensor = List.init 32 (fun i -> i + 1) in
  let _old, _clone, image, _sio =
    Support.capture_and_clone prepared.Dr_transform.Instrument.prepared_program
      ~feeds:[ ("display", [ Dr_state.Value.Vint 4 ]) ]
      ~sensor_values:sensor ~signal_after_reads:2
  in
  match Dr_baselines.Recompile.synthesize ~prepared ~image with
  | Error e -> Alcotest.failf "synthesize: %s" e
  | Ok migration_program ->
    (* the migration program is an ordinary module: printable,
       re-parseable, and runnable with NO restore buffer and NO clone
       status *)
    let printed = Dr_lang.Pretty.program_to_string migration_program in
    let reparsed = Support.parse printed in
    Support.typecheck_ok reparsed;
    let sio =
      Support.script_io ~feeds:[ ("sensor", List.map (fun i -> Dr_state.Value.Vint i) [ 3; 4 ]) ] ()
    in
    let m = Machine.create ~io:sio.Support.io reparsed in
    let guard = ref 0 in
    while
      Machine.status m = Machine.Ready && sio.Support.written = [] && !guard < 200_000
    do
      Machine.step m;
      incr guard
    done;
    (match Support.written sio with
    | [ ("display", Dr_state.Value.Vfloat avg) ] ->
      Alcotest.(check (float 1e-9)) "resumes and answers 2.5" 2.5 avg
    | w -> Alcotest.failf "unexpected writes: %d" (List.length w))

let test_recompile_heap_blocks () =
  let source =
    {|
module heapy;

var table: int[];
var cur: int*;

proc main() {
  var steps: int;
  mh_init();
  table = alloc_int(6);
  table[2] = 42;
  cur = &table[2];
  while (true) {
    R: steps = steps + 1;
    sleep(1);
  }
}
|}
  in
  let prepared = Support.prepare source [ Support.point "main" "R" ] in
  let sio = Support.script_io () in
  let m = Machine.create ~io:sio.Support.io prepared.Dr_transform.Instrument.prepared_program in
  Machine.run ~max_steps:100_000 m;
  Machine.deliver_signal m;
  Machine.set_ready m;
  Machine.run ~max_steps:100_000 m;
  let image = List.hd sio.Support.divulged in
  match Dr_baselines.Recompile.synthesize ~prepared ~image with
  | Error e -> Alcotest.failf "synthesize: %s" e
  | Ok migration_program ->
    let sio2 = Support.script_io () in
    let m2 = Machine.create ~io:sio2.Support.io migration_program in
    Machine.run ~max_steps:100_000 m2;
    Alcotest.(check bool) "resumed into the loop" true
      (match Machine.status m2 with Machine.Sleeping _ -> true | _ -> false);
    (* heap rebuilt from literals, with the interior pointer intact *)
    (match Machine.read_global m2 "table", Machine.read_global m2 "cur" with
    | Some (Dr_state.Value.Varr b), Some (Dr_state.Value.Vptr (b', 2)) ->
      Alcotest.(check int) "pointer into the same block" b b';
      (match Machine.heap_block m2 b with
      | Some block ->
        Alcotest.check Support.value "cell preserved" (Dr_state.Value.Vint 42)
          block.cells.(2)
      | None -> Alcotest.fail "missing block")
    | _ -> Alcotest.fail "heap globals not restored")

let test_recompile_rejects_garbage_image () =
  let prepared =
    Support.prepare monitor_compute [ Support.point "compute" "R" ]
  in
  let bogus =
    Dr_state.Image.make ~source_module:"compute"
      ~records:[ { Dr_state.Image.location = 99; values = [||] } ]
      ~heap:[]
  in
  match Dr_baselines.Recompile.synthesize ~prepared ~image:bogus with
  | Error e ->
    Alcotest.(check bool) "mentions location" true
      (let contains needle haystack =
         let n = String.length needle and h = String.length haystack in
         let rec go i =
           i + n <= h && (String.sub haystack i n = needle || go (i + 1))
         in
         n = 0 || go 0
       in
       contains "location" e)
  | Ok _ -> Alcotest.fail "expected rejection"

(* --------------------------------------------- machine-specific move *)

let test_machine_move_same_arch () =
  (* hostA is x86_64 and so is nowhere else in the monitor set; add a
     twin host for the same-architecture case *)
  let hosts =
    { Bus.host_name = "hostA2"; arch = Dr_state.Arch.x86_64 }
    :: Dr_workloads.Monitor.hosts
  in
  let system = Dr_workloads.Monitor.load () in
  let bus =
    match
      Dynrecon.System.start system ~app:"monitor" ~hosts ~default_host:"hostA" ()
    with
    | Ok bus -> bus
    | Error e -> Alcotest.failf "start: %s" e
  in
  Bus.run ~until:20.0 bus;
  (match
     Dr_baselines.Machine_move.move bus ~instance:"compute"
       ~new_instance:"compute_raw" ~new_host:"hostA2"
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "same-arch move: %s" e);
  Alcotest.(check (option string)) "moved" (Some "hostA2")
    (Bus.instance_host bus ~instance:"compute_raw");
  (* the application keeps producing correct averages: the raw snapshot
     carried the mid-statement state with it *)
  Bus.run ~until:(Bus.now bus +. 40.0) bus;
  let avgs =
    List.filter_map Dr_workloads.Monitor.parse_displayed
      (Bus.outputs bus ~instance:"display")
  in
  Alcotest.(check bool) "still correct" true
    (Dr_workloads.Monitor.averages_plausible ~n:4 (List.map snd avgs))

let test_machine_move_refuses_cross_arch () =
  let system = Dr_workloads.Monitor.load () in
  let bus = Dr_workloads.Monitor.start system in
  Bus.run ~until:10.0 bus;
  match
    Dr_baselines.Machine_move.move bus ~instance:"compute"
      ~new_instance:"compute_raw" ~new_host:"hostB"
  with
  | Error e ->
    let contains needle haystack =
      let n = String.length needle and h = String.length haystack in
      let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
      n = 0 || go 0
    in
    Alcotest.(check bool) "explains the architecture barrier" true
      (contains "architecture" e);
    Alcotest.(check bool) "original untouched" true
      (List.mem "compute" (Bus.instances bus))
  | Ok () -> Alcotest.fail "cross-architecture raw snapshot accepted"

let prop_recompile_equivalent =
  Support.qcheck ~count:15 "migration program equivalent to restore buffer"
    QCheck2.Gen.(1 -- 24)
    (fun depth ->
      let program = Dr_workloads.Synthetic.deeprec ~depth in
      match
        Dr_transform.Instrument.prepare program
          ~points:Dr_workloads.Synthetic.deeprec_points
      with
      | Error e -> QCheck2.Test.fail_reportf "prepare: %s" e
      | Ok prepared ->
        let sio = Support.script_io () in
        let m =
          Machine.create ~io:sio.Support.io
            prepared.Dr_transform.Instrument.prepared_program
        in
        Machine.run ~max_steps:1_000_000 m;
        Machine.deliver_signal m;
        Machine.set_ready m;
        Machine.run ~max_steps:1_000_000 m;
        let image = List.hd sio.Support.divulged in
        (* ours *)
        let clone =
          Machine.create ~status_attr:"clone" ~io:(Dr_interp.Io_intf.null ())
            prepared.Dr_transform.Instrument.prepared_program
        in
        Machine.feed_image clone image;
        Machine.run ~max_steps:1_000_000 clone;
        (* theirs *)
        (match Dr_baselines.Recompile.synthesize ~prepared ~image with
        | Error e -> QCheck2.Test.fail_reportf "synthesize: %s" e
        | Ok migration_program ->
          let mig =
            Machine.create ~io:(Dr_interp.Io_intf.null ()) migration_program
          in
          Machine.run ~max_steps:1_000_000 mig;
          Machine.stack_depth clone = Machine.stack_depth mig
          && Machine.stack_procs clone = Machine.stack_procs mig
          && Machine.read_global clone "ticks" = Machine.read_global mig "ticks"))

let () =
  Alcotest.run "baselines"
    [ ( "checkpoint",
        [ Alcotest.test_case "cadence" `Quick test_checkpoint_cadence;
          Alcotest.test_case "interval tradeoff" `Quick
            test_checkpoint_interval_tradeoff;
          Alcotest.test_case "rollback loses work" `Quick
            test_checkpoint_rollback_loses_work;
          Alcotest.test_case "no checkpoint yet" `Quick
            test_checkpoint_no_rollback_before_first;
          Alcotest.test_case "bad interval" `Quick
            test_checkpoint_rejects_bad_interval ] );
      ( "quiescence",
        [ Alcotest.test_case "idle module updates" `Quick
            test_quiescent_update_succeeds;
          Alcotest.test_case "busy module never" `Quick
            test_busy_module_never_quiesces;
          Alcotest.test_case "queues must drain" `Quick
            test_quiescence_requires_empty_queues ] );
      ( "proc update",
        [ Alcotest.test_case "changed set" `Quick test_changed_set_detection;
          Alcotest.test_case "leaf fast" `Quick test_leaf_update_fast;
          Alcotest.test_case "main waits" `Quick
            test_main_update_waits_for_termination;
          Alcotest.test_case "bottom-up order" `Quick test_bottom_up_ordering;
          Alcotest.test_case "new code effective" `Quick test_new_code_takes_effect ] );
      ( "recompilation",
        [ Alcotest.test_case "mid-recursion migration program" `Quick
            test_recompile_monitor_mid_recursion;
          Alcotest.test_case "heap rebuilt from literals" `Quick
            test_recompile_heap_blocks;
          Alcotest.test_case "garbage image rejected" `Quick
            test_recompile_rejects_garbage_image;
          prop_recompile_equivalent ] );
      ( "machine move",
        [ Alcotest.test_case "same architecture works" `Quick
            test_machine_move_same_arch;
          Alcotest.test_case "cross architecture refused" `Quick
            test_machine_move_refuses_cross_arch ] ) ]
