(* Benchmark harness.

   Part 1 regenerates every paper artifact (F1–F8) and measures every
   quantitative claim of the Discussion and baseline comparison (D1–D8)
   plus three ablations (A1–A3) in deterministic virtual time — see
   Tables.

   Part 2 is a Bechamel wall-clock suite with one Test.make per
   table/figure, timing the core operation behind each experiment on the
   real OCaml runtime.

   Part 3 (Scaling) drives an N-member ring workload to a fixed virtual
   horizon at N = 10 .. 100 000 instances, one row per N, and reports
   engine events per delivery and wall-clock deliveries/sec — the bus
   hot-path scaling experiment of EXPERIMENTS.md.

   Part 4 (Chaos) measures reconfiguration success rate and completion
   latency under seeded fault injection (message loss, host crashes) —
   the transactional-rollback experiment of EXPERIMENTS.md — plus an
   exactly-once sweep with the reliable delivery layer enabled (loss
   0-20%, six fault scenarios); emits BENCH_chaos.json.

   Part 5 (Interp) compares the production engine (resolved slot-indexed
   code, superinstruction dispatch) against the original AST-walking
   engine, the test-only oracle (instrs/sec on the D1 hot loop,
   depth-64 capture/restore) and emits BENCH_interp.json.

   Part 6 (Disruption) sweeps AR-stack depth x payload on a cross-
   architecture migration and reads the signal/drain/capture/translate/
   restore decomposition out of the metrics span tree; emits
   BENCH_disruption.json.

   Run with: dune exec bench/main.exe             (tables + micro)
             dune exec bench/main.exe -- tables   (virtual-time tables only)
             dune exec bench/main.exe -- micro    (wall-clock only)
             dune exec bench/main.exe -- scaling  (bus scaling suite)
             dune exec bench/main.exe -- chaos    (fault-injection suite)
             dune exec bench/main.exe -- interp   (engine comparison)
             dune exec bench/main.exe -- disruption (window decomposition)
             dune exec bench/main.exe -- wal       (durable-log crash sweep)
             dune exec bench/main.exe -- rolling  (rolling-replacement suite)
             dune exec bench/main.exe -- mc       (model-checker exploration)

   Part 7 (WAL) crashes the controller at every control-log append
   index of a transactional replace (x scenarios x loss rates), replays
   the log, and gates on 100% post-recovery consistency; it also
   measures append throughput per backend/sync batching (128-byte
   records, plus 12 KiB state-image-sized ones) and recovery time vs
   journal depth; emits BENCH_wal.json.

   Part 8 (Rolling) runs autonomous rolling-replacement waves over a
   replica group under live open-loop traffic, sweeping group size x
   request rate x fault plan (loss 0-20%, a mid-wave replica kill, a
   deliberately-bad canary build, controller crashes mid-wave), and
   gates on exactly-once-or-shed accounting, bad-canary detection and
   post-crash recovery; emits BENCH_rolling.json.

   Part 9 (MC) explores every checked model-checking configuration
   exhaustively under DPOR (plus naive and sleep-set tiers on
   single-replace for the reduction ratio) and gates on exhaustiveness
   and zero monitor violations; emits BENCH_mc.json.

   Only "scaling" accepts --quick (smaller sizes, CI smoke); the quick
   run writes _build/bench/BENCH_scaling_quick.json, outside the
   tracked tree, so no smoke run can touch a committed artifact, or the
   path given after --quick (bench/main.exe scaling --quick out.json). The
   other suites have no quick mode: each full run takes seconds. All
   full runs emit machine-readable BENCH_*.json artifacts next to
   bench_output.txt. "chaos", "disruption", "wal", "rolling" and "mc"
   take the artifact's path as an optional second argument (default:
   the committed BENCH_<suite>.json in the current directory); `dune
   runtest` uses it to regenerate each into _build and diff it against
   the committed file (rules in bench/dune). *)

open Bechamel
open Toolkit

module Bus = Dr_bus.Bus
module Machine = Dr_interp.Machine
module I = Dr_transform.Instrument
module Synthetic = Dr_workloads.Synthetic
module Monitor = Dr_workloads.Monitor

let prepare_exn program points =
  match I.prepare program ~points with
  | Ok prepared -> prepared
  | Error e -> failwith e

let null_io = Dr_interp.Io_intf.null ()

let standalone program =
  let divulged = ref [] in
  let io = { null_io with io_encode = (fun image -> divulged := image :: !divulged) } in
  (Machine.create ~io program, divulged)

(* Pre-built inputs shared by the micro-benchmarks (constructed once). *)

let monitor_compute = Dr_lang.Parser.parse_program Monitor.compute_source

let monitor_points = [ { I.pt_proc = "compute"; pt_label = "R"; pt_vars = None } ]

let prepared_hotloop =
  (prepare_exn (Synthetic.hotloop ~rounds:20 ~inner:20)
     (Synthetic.hotloop_points `Outer))
    .I
    .prepared_program

let hotloop_original = Synthetic.hotloop ~rounds:20 ~inner:20

let prepared_deeprec =
  (prepare_exn (Synthetic.deeprec ~depth:32) Synthetic.deeprec_points)
    .I
    .prepared_program

let deeprec_image =
  let m, divulged = standalone prepared_deeprec in
  Machine.run ~max_steps:10_000_000 m;
  Machine.deliver_signal m;
  Machine.set_ready m;
  Machine.run ~max_steps:10_000_000 m;
  List.hd !divulged

let deeprec_abstract = Dr_state.Codec.encode_abstract deeprec_image

let deeprec_native_le =
  Result.get_ok (Dr_state.Codec.Native.encode Dr_state.Arch.x86_64 deeprec_image)

let fig6_sample =
  Dr_lang.Parser.parse_program
    "module sample;\nproc c() { }\nproc a() { R1: skip; c(); }\nproc b() { R2: skip; }\nproc main() { a(); c(); b(); a(); }"

(* One Test.make per table/figure. *)

let test_fig1 =
  Test.make ~name:"fig1_monitor_migration"
    (Staged.stage (fun () ->
         let system = Monitor.load () in
         let bus = Monitor.start system in
         Bus.run ~until:12.0 bus;
         match
           Dynrecon.System.migrate bus ~instance:"compute" ~new_instance:"c2"
             ~new_host:"hostB"
         with
         | Ok _ -> ()
         | Error e -> failwith e))

let test_fig2 =
  Test.make ~name:"fig2_mil_parse_print"
    (Staged.stage (fun () ->
         let config = Dr_mil.Mil_parser.parse_config Monitor.mil in
         ignore (Dr_mil.Mil_pretty.config_to_string config)))

let test_fig4 =
  Test.make ~name:"fig4_transform_compute"
    (Staged.stage (fun () -> ignore (prepare_exn monitor_compute monitor_points)))

let test_fig5 =
  Test.make ~name:"fig5_rebind_batch"
    (Staged.stage (fun () ->
         let system = Monitor.load () in
         let bus = Monitor.start system in
         match Dr_reconfig.Primitives.obj_cap bus ~instance:"compute" with
         | Ok cap -> ignore cap
         | Error e -> failwith e))

let test_fig6 =
  Test.make ~name:"fig6_reconfig_graph"
    (Staged.stage (fun () ->
         ignore
           (Dr_analysis.Reconfig_graph.build fig6_sample
              ~points:[ ("a", "R1"); ("b", "R2") ])))

let test_fig78 =
  Test.make ~name:"fig7_fig8_emit_source"
    (Staged.stage
       (let prepared = prepare_exn monitor_compute monitor_points in
        fun () ->
          ignore (Dr_lang.Pretty.program_to_string prepared.I.prepared_program)))

let test_d1_original =
  Test.make ~name:"d1_hotloop_original"
    (Staged.stage (fun () ->
         let m = Machine.create ~io:null_io hotloop_original in
         Machine.run ~max_steps:10_000_000 m))

let test_d1_prepared =
  Test.make ~name:"d1_hotloop_prepared"
    (Staged.stage (fun () ->
         let m = Machine.create ~io:null_io prepared_hotloop in
         Machine.run ~max_steps:10_000_000 m))

let test_d2 =
  Test.make ~name:"d2_checkpoint_interval100"
    (Staged.stage (fun () ->
         let cp =
           Dr_baselines.Checkpoint.create ~interval:100 ~io:null_io
             hotloop_original
         in
         Dr_baselines.Checkpoint.run cp ~max_steps:10_000_000))

let test_d3 =
  Test.make ~name:"d3_signal_to_capture"
    (Staged.stage (fun () ->
         let m, divulged = standalone prepared_hotloop in
         Machine.run ~max_steps:200 m;
         Machine.deliver_signal m;
         Machine.run ~max_steps:10_000_000 m;
         ignore !divulged))

let test_d4_capture =
  Test.make ~name:"d4_capture_depth32"
    (Staged.stage (fun () ->
         let m, divulged = standalone prepared_deeprec in
         Machine.run ~max_steps:10_000_000 m;
         Machine.deliver_signal m;
         Machine.set_ready m;
         Machine.run ~max_steps:10_000_000 m;
         ignore !divulged))

let test_d4_restore =
  Test.make ~name:"d4_restore_depth32"
    (Staged.stage (fun () ->
         let clone, _ = standalone prepared_deeprec in
         Machine.feed_image clone deeprec_image;
         Machine.run ~max_steps:10_000_000 clone))

let test_d5 =
  Test.make ~name:"d5_proc_update_leaf"
    (Staged.stage (fun () ->
         let old_program = Synthetic.layered ~iterations:50 in
         let new_program = Synthetic.layered_variant ~iterations:50 ~change:`Leaf in
         let machine = Machine.create ~io:null_io old_program in
         let updater =
           Dr_baselines.Proc_update.create ~machine ~old_program ~new_program
         in
         ignore (Dr_baselines.Proc_update.run updater ~max_steps:10_000_000)))

let test_d7_encode =
  Test.make ~name:"d7_encode_abstract"
    (Staged.stage (fun () -> ignore (Dr_state.Codec.encode_abstract deeprec_image)))

let test_d7_decode =
  Test.make ~name:"d7_decode_abstract"
    (Staged.stage (fun () ->
         ignore (Dr_state.Codec.decode_abstract deeprec_abstract)))

let test_d7_translate =
  Test.make ~name:"d7_translate_le_to_be"
    (Staged.stage (fun () ->
         ignore
           (Dr_state.Codec.Native.translate ~src:Dr_state.Arch.x86_64
              ~dst:Dr_state.Arch.sparc32 deeprec_native_le)))

let test_d8_synthesize =
  Test.make ~name:"d8_synthesize_migration_program"
    (Staged.stage
       (let prepared =
          prepare_exn (Synthetic.deeprec ~depth:32) Synthetic.deeprec_points
        in
        fun () ->
          match
            Dr_baselines.Recompile.synthesize ~prepared ~image:deeprec_image
          with
          | Ok p -> ignore (Dr_interp.Lower.lower_program p)
          | Error e -> failwith e))

let test_lower =
  Test.make ~name:"interp_lower_program"
    (Staged.stage (fun () -> ignore (Dr_interp.Lower.lower_program monitor_compute)))

let micro_tests =
  Test.make_grouped ~name:"dynrecon"
    [ test_fig1; test_fig2; test_fig4; test_fig5; test_fig6; test_fig78;
      test_d1_original; test_d1_prepared; test_d2; test_d3; test_d4_capture;
      test_d4_restore; test_d5; test_d7_encode; test_d7_decode;
      test_d7_translate; test_d8_synthesize; test_lower ]

let run_micro () =
  print_newline ();
  print_endline "==============================================================";
  print_endline "Wall-clock micro-benchmarks (Bechamel, monotonic clock)";
  print_endline "==============================================================";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] micro_tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let nanos =
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> est
        | _ -> Float.nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with
        | Some r -> Printf.sprintf "%.3f" r
        | None -> "-"
      in
      rows := (name, nanos, r2) :: !rows)
    results;
  let rows = List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !rows in
  Printf.printf "%-40s %16s  %6s\n" "benchmark" "time/run" "r²";
  Printf.printf "%s\n" (String.make 66 '-');
  List.iter
    (fun (name, nanos, r2) ->
      let time =
        if Float.is_nan nanos then "-"
        else if nanos > 1e9 then Printf.sprintf "%.2f s" (nanos /. 1e9)
        else if nanos > 1e6 then Printf.sprintf "%.2f ms" (nanos /. 1e6)
        else if nanos > 1e3 then Printf.sprintf "%.2f µs" (nanos /. 1e3)
        else Printf.sprintf "%.0f ns" nanos
      in
      Printf.printf "%-40s %16s  %6s\n" name time r2)
    rows

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let arg = if Array.length Sys.argv > 2 then Some Sys.argv.(2) else None in
  let quick = arg = Some "--quick" in
  if what = "tables" || what = "all" then Tables.all ();
  if what = "micro" || what = "all" then run_micro ();
  if what = "scaling" then
    Scaling.all ~quick
      ?path:(if Array.length Sys.argv > 3 then Some Sys.argv.(3) else None)
      ();
  if what = "chaos" then Chaos.all ?path:arg ();
  if what = "interp" then Interp_bench.all ();
  if what = "disruption" then Disruption.all ?path:arg ();
  if what = "wal" then Wal_bench.all ?path:arg ();
  if what = "rolling" then Rolling.all ?path:arg ();
  if what = "mc" then Mc.all ?path:arg ()
