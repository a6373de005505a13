(* The end-to-end benchmark's command line.

     main.exe --workload W --seed S --seconds T --trace 0|1
         Measure one workload for about T seconds and print, as the last
         line of stdout, one JSON object: {"correct", "attempted",
         "failed", "metrics"}. With --trace 0 the metrics are the
         end-to-end ones (medians of untraced reps); with --trace 1 the
         per-layer ones (untraced and traced reps alternate, and every
         traced rep must reproduce its untraced twin's deterministic
         outputs exactly).

     main.exe run [--workload W]... [--seed S] [--reps 3] [--no-trace]
                  [--smoke] [--out DIR]
         Every workload (or the named ones): --reps untraced reps for the
         end-to-end medians and their min-max spread, then one traced rep
         for the per-layer metrics. Prints "workload metric value unit"
         lines; writes results and Chrome traces under DIR (default
         _build/benchmark). Exits non-zero on any failed check.

     main.exe calibrate [--runs 5] [--workload W]... [--seed S]
                        [--seconds T] [--smoke]
         --runs measure-mode runs (untraced, T seconds each) of
         the same seed per workload; prints each end-to-end metric's
         spread (interquartile range and max-min, as shares of the
         median) against its bound, flagging any above a third of it.

     main.exe manifest
         Print BENCHMARK.json (the metric catalogue below).

   Every rep runs in a fresh child process ([rep] subcommand), one at a
   time, so no rep inherits another's heap, caches or compiled
   programs. *)

(* {1 Catalogue} *)

type better = Lower | Higher

(* End-to-end metrics, reported on every workload; [bound] is the share
   of the parent's median by which the median may worsen. The wall-clock
   bounds are as wide as allowed because one seed's run-to-run spread on
   a shared host reaches 17-33 % (README.md); the heap repeats exactly
   for a seed and varies under 4 % across seeds. *)
let end_to_end =
  [ ("setup_s", "s", Lower, 0.25);
    ("run_s", "s", Lower, 0.25);
    ("peak_heap_mb", "MB", Lower, 0.05) ]

(* Per-layer metrics (traced runs); 0 where a layer does no work on a
   workload. The first block are workload-level results that apply to
   some workloads only, measured on the untraced twin reps. *)
let per_layer =
  [ ("deliveries_per_s", "1/s", Higher);
    ("requests_per_s", "1/s", Higher);
    ("instrs_per_s", "1/s", Higher);
    ("reconfigs_per_s", "1/s", Higher);
    ("reconfig_wall_ms_p50", "ms", Lower);
    ("reconfig_wall_ms_p99", "ms", Lower);
    ("disruption_vms_p50", "vms", Lower);
    ("disruption_vms_p99", "vms", Lower);
    ("req_latency_vt_p50", "vms", Lower);
    ("req_latency_vt_p99", "vms", Lower);
    ("failed_frac", "ratio", Lower);
    ("trace.overhead_frac", "ratio", Lower);
    (* setup *)
    ("core.load_s", "s", Lower);
    ("bus.deploy_s", "s", Lower);
    ("mil.parse_s", "s", Lower);
    ("lang.parse_s", "s", Lower);
    ("lang.typecheck_s", "s", Lower);
    ("transform.prepare_s", "s", Lower);
    ("interp.lower_s", "s", Lower);
    ("interp.cache_hits", "count", Higher);
    ("interp.cache_misses", "count", Lower);
    (* sim *)
    ("sim.events", "count", Lower);
    ("sim.events_per_delivery", "ratio", Lower);
    ("sim.ns_per_event", "ns", Lower);
    (* bus *)
    ("bus.deliveries", "count", Higher);
    ("bus.transfers", "count", Lower);
    ("bus.ns_per_delivery", "ns", Lower);
    ("bus.batches", "count", Lower);
    ("bus.batched", "count", Higher);
    ("bus.run_chunk_ms_p50", "ms", Lower);
    ("bus.run_chunk_ms_p99", "ms", Lower);
    ("bus.dropped", "count", Lower);
    ("bus.live_instances", "count", Lower);
    (* faults / reliable transport *)
    ("faults.injected", "count", Lower);
    ("reliable.retx_total", "count", Lower);
    ("reliable.retx_wait_vms", "vms", Lower);
    ("drain.retransmit_vms", "vms", Lower);
    (* interpreter *)
    ("interp.instrs", "count", Lower);
    ("interp.instrs_per_delivery", "ratio", Lower);
    ("interp.ns_per_instr", "ns", Lower);
    ("interp.records_restored", "count", Lower);
    ("interp.frames_rebuilt", "count", Lower);
    (* state transfer *)
    ("state.bytes_in_p50", "bytes", Lower);
    ("state.bytes_out_p50", "bytes", Lower);
    ("state.delta_bytes_p50", "bytes", Lower);
    ("state.delta_slots_p50", "count", Lower);
    ("state.fallback.none", "count", Higher);
    ("state.fallback.cross_arch", "count", Lower);
    ("state.fallback.misaligned", "count", Lower);
    ("state.fallback.disabled", "count", Lower);
    ("state.quarantined", "count", Lower);
    (* reconfiguration *)
    ("reconfig.script_ms_p50", "ms", Lower);
    ("reconfig.script_ms_p99", "ms", Lower);
    ("reconfig.restore_wait_ms_p50", "ms", Lower);
    ("reconfig.signal_vms_p50", "vms", Lower);
    ("reconfig.drain_vms_p50", "vms", Lower);
    ("reconfig.capture_vms_p50", "vms", Lower);
    ("reconfig.translate_vms_p50", "vms", Lower);
    ("reconfig.restore_vms_p50", "vms", Lower);
    ("reconfig.precopy_wait_vms_p50", "vms", Lower);
    ("reconfig.signals", "count", Lower);
    (* rolling waves and their traffic *)
    ("rolling.wave_ms_p50", "ms", Lower);
    ("rolling.wave_vms_p50", "vms", Lower);
    ("rolling.upgrades", "count", Higher);
    ("rolling.rollbacks", "count", Lower);
    ("traffic.sent", "count", Higher);
    ("traffic.answered", "count", Higher);
    ("traffic.shed", "count", Lower);
    ("traffic.wrong", "count", Lower);
    ("traffic.duplicated", "count", Lower);
    (* write-ahead log (memory backend) *)
    ("wal.appends", "count", Lower);
    ("wal.append_bytes", "bytes", Lower);
    ("wal.append_s", "s", Lower);
    ("wal.syncs", "count", Lower);
    ("wal.sync_s", "s", Lower);
    ("wal.blob_writes", "count", Lower);
    ("wal.write_s", "s", Lower);
    ("wal.deletes", "count", Lower);
    ("wal.bytes_per_reconfig", "bytes", Lower);
    (* model checker *)
    ("mc.executions", "count", Lower);
    ("mc.transitions", "count", Lower);
    ("mc.states", "count", Lower);
    ("mc.dedup_cuts", "count", Higher);
    ("mc.us_per_transition", "us", Lower) ]
  @ List.map (fun c -> ("mc.explore_s." ^ c, "s", Lower)) Dr_mc.Configs.names
  @ [ (* GC and heap *)
      ("gc.minor_words_per_op", "words", Lower);
      ("gc.promoted_words_per_op", "words", Lower);
      ("gc.major_collections", "count", Lower);
      ("heap.live_mb_end", "MB", Lower);
      ("heap.retained_kb_per_reconfig", "KB", Lower) ]

let run_seconds = 25

let better_name = function Lower -> "lower" | Higher -> "higher"

let manifest () =
  let q = Tracer.json_string in
  let lines xs = String.concat ",\n" xs in
  Printf.printf
    "{\n\
    \  \"command\": [\"dune\", \"exec\", \"--display=quiet\", \"--no-print-directory\", \
     \"benchmark/main.exe\", \"--\"],\n\
    \  \"paths\": [\"benchmark\"],\n\
    \  \"run_seconds\": %d,\n\
    \  \"workloads\": [\n%s\n  ],\n\
    \  \"end_to_end\": [\n%s\n  ],\n\
    \  \"per_layer\": [\n%s\n  ]\n\
     }\n"
    run_seconds
    (lines
       (List.map
          (fun (w : Workloads.workload) ->
            Printf.sprintf "    {\"name\": %s, \"why\": %s}" (q w.name) (q w.why))
          Workloads.all))
    (lines
       (List.map
          (fun (name, unit, better, bound) ->
            Printf.sprintf
              "    {\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %g}" (q name)
              (q unit)
              (q (better_name better))
              bound)
          end_to_end))
    (lines
       (List.map
          (fun (name, unit, better) ->
            Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s}" (q name)
              (q unit)
              (q (better_name better)))
          per_layer))

(* {1 Reps in child processes} *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let trace_path out workload = Filename.concat out ("trace-" ^ workload ^ ".json")

(* One rep, in this process: report on stdout in the line protocol. *)
let rep_main ~(w : Workloads.workload) ~seed ~traced ~smoke ~out =
  if traced then Tracer.enable ();
  let r = Report.create () in
  let registry =
    try w.run { Workloads.seed; smoke; traced } r
    with e ->
      Report.check r (w.name ^ ": " ^ Printexc.to_string e) false;
      None
  in
  if traced then begin
    r.Report.spans <- Tracer.summary ();
    Tracer.write_chrome ~path:(trace_path out w.name)
      ~label:(Printf.sprintf "%s seed %d" w.name seed)
      ~virtual_spans:(Option.fold ~none:[] ~some:Layers.virtual_spans registry)
  end;
  Report.emit stdout r

let read_lines ic =
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let spawn_rep ~out ~smoke ~workload ~seed ~traced =
  let exe = Sys.executable_name in
  let args =
    [ exe; "rep"; "--workload"; workload; "--seed"; string_of_int seed; "--out"; out ]
    @ (if traced then [ "--trace" ] else [])
    @ if smoke then [ "--smoke" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let lines = read_lines ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let r = Report.parse lines in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c ->
    Report.check r (Printf.sprintf "%s rep exited with %d" workload c) false
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    Report.check r (Printf.sprintf "%s rep killed by signal %d" workload s) false);
  r

(* {1 Aggregation} *)

let values reps name =
  List.filter_map
    (fun r -> Option.map (fun m -> m.Report.m_value) (Report.find r name))
    reps

let median_of reps name =
  match values reps name with [] -> None | vs -> Some (Stats.median vs)

(* Passivity and determinism: every deterministic output of every rep
   (traced or not) of one seed must equal the first rep's. *)
let determinism_failures reps =
  match reps with
  | [] -> []
  | first :: rest ->
    List.concat_map
      (fun r ->
        List.filter_map
          (fun (m : Report.metric) ->
            match Report.find r m.m_name with
            | Some m' when m.m_det && m'.m_value <> m.m_value ->
              Some
                (Printf.sprintf "passivity: %s is %.17g in one rep, %.17g in another"
                   m.m_name m.m_value m'.m_value)
            | _ -> None)
          (Report.metrics first))
      rest

let failures reps = List.concat_map (fun r -> List.rev r.Report.failures) reps

let overhead untraced traced =
  match (median_of untraced "run_s", median_of traced "run_s") with
  | Some u, Some t when u > 0.0 -> (t /. u) -. 1.0
  | _ -> 0.0

(* A per-layer value: workload-level results come from the untraced
   reps, layer readings from the traced ones; 0 when the workload does
   not exercise the layer. *)
let layer_value ~untraced ~traced name =
  if name = "trace.overhead_frac" then overhead untraced traced
  else
    let e2e =
      List.exists
        (fun r ->
          match Report.find r name with
          | Some m -> m.Report.m_role = Report.E2e
          | None -> false)
        untraced
    in
    Option.value ~default:0.0 (median_of (if e2e then untraced else traced) name)

(* {1 Measure mode} *)

(* Reps of one workload and seed for about [seconds]: untraced ones,
   each followed by a traced twin when [trace] is set. Another rep (or
   pair) starts only if it should end before the deadline, judging by
   the last one. *)
let collect ~out ~smoke ~workload ~seed ~seconds ~trace =
  let t_end = Unix.gettimeofday () +. float_of_int seconds in
  let untraced = ref [] and traced = ref [] in
  let rep tr = spawn_rep ~out ~smoke ~workload ~seed ~traced:tr in
  let rec loop () =
    let t0 = Unix.gettimeofday () in
    let u = rep false in
    untraced := u :: !untraced;
    if trace then traced := rep true :: !traced;
    let now = Unix.gettimeofday () in
    if now +. (now -. t0) <= t_end && failures [ u ] = [] then loop ()
  in
  loop ();
  (List.rev !untraced, List.rev !traced)

let measure ~workload ~seed ~seconds ~trace ~out =
  let untraced, traced = collect ~out ~smoke:false ~workload ~seed ~seconds ~trace in
  let reps = untraced @ traced in
  let missing =
    if trace then []
    else
      List.filter_map
        (fun (name, _, _, _) ->
          if median_of untraced name = None then Some ("missing metric " ^ name) else None)
        end_to_end
  in
  let problems = failures reps @ determinism_failures reps @ missing in
  List.iter (fun p -> prerr_endline ("FAIL: " ^ p)) problems;
  let metric (name, unit, v) =
    Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (Tracer.json_string name) v
      (Tracer.json_string unit)
  in
  let metrics =
    if trace then
      List.map (fun (name, unit, _) -> (name, unit, layer_value ~untraced ~traced name)) per_layer
    else
      List.map
        (fun (name, unit, _, _) ->
          (name, unit, Option.value ~default:0.0 (median_of untraced name)))
        end_to_end
  in
  List.iter
    (fun (name, unit, v) ->
      Printf.printf "%s %s %.6g %s (median of %d reps)\n" workload name v unit
        (List.length (if trace then traced else untraced)))
    metrics;
  let attempted = List.fold_left (fun a r -> a + r.Report.attempted) 0 reps in
  let failed = List.fold_left (fun a r -> a + r.Report.failed) 0 reps in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (problems = []) (max 1 attempted) failed
    (String.concat ", " (List.map metric metrics));
  if problems <> [] then exit 1

(* {1 run} *)

let print_metric workload name v unit =
  Printf.printf "%-13s %-32s %14.6g %s\n%!" workload name v unit

let write_results ~out ~workload ~seed ~untraced ~traced =
  let q = Tracer.json_string in
  let entries reps =
    List.sort_uniq compare
      (List.concat_map
         (fun r -> List.map (fun m -> (m.Report.m_name, m.Report.m_unit)) (Report.metrics r))
         reps)
    |> List.map (fun (name, unit) ->
           let vs = values reps name in
           Printf.sprintf
             "    %s: {\"median\": %.17g, \"min\": %.17g, \"max\": %.17g, \"unit\": %s}"
             (q name) (Stats.median vs) (Stats.quantile 0.0 vs) (Stats.quantile 1.0 vs)
             (q unit))
    |> String.concat ",\n"
  in
  let spans =
    List.concat_map
      (fun r ->
        List.map
          (fun (name, n, total, self) ->
            Printf.sprintf
              "    {\"span\": %s, \"count\": %d, \"total_s\": %.9g, \"self_s\": %.9g}"
              (q name) n total self)
          r.Report.spans)
      traced
    |> String.concat ",\n"
  in
  let path = Filename.concat out (Printf.sprintf "results-%s-seed%d.json" workload seed) in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"workload\": %s,\n\
    \  \"seed\": %d,\n\
    \  \"untraced_reps\": %d,\n\
    \  \"untraced\": {\n%s\n  },\n\
    \  \"traced\": {\n%s\n  },\n\
    \  \"spans\": [\n%s\n  ]\n\
     }\n"
    (q workload) seed (List.length untraced) (entries untraced) (entries traced) spans;
  close_out oc;
  path

let run_workload ~out ~smoke ~seed ~reps ~trace workload =
  Printf.printf "== %s (seed %d, %d untraced reps%s)\n%!" workload seed reps
    (if trace then " + 1 traced" else "");
  let spawn traced = spawn_rep ~out ~smoke ~workload ~seed ~traced in
  let untraced = List.init reps (fun _ -> spawn false) in
  let traced = if trace then [ spawn true ] else [] in
  let problems =
    failures (untraced @ traced) @ determinism_failures (untraced @ traced)
  in
  let e2e_names =
    List.sort_uniq compare
      (List.concat_map
         (fun r ->
           List.filter_map
             (fun m ->
               if m.Report.m_role = Report.E2e then Some (m.Report.m_name, m.Report.m_unit)
               else None)
             (Report.metrics r))
         untraced)
  in
  List.iter
    (fun (name, unit) ->
      Option.iter (fun v -> print_metric workload name v unit) (median_of untraced name))
    e2e_names;
  if reps > 1 then
    List.iter
      (fun (name, _) ->
        print_metric workload (name ^ ".spread")
          (Stats.range_share (values untraced name))
          "ratio")
      e2e_names;
  if trace then begin
    List.iter
      (fun (name, unit, _) ->
        let measured =
          name = "trace.overhead_frac"
          || List.exists (fun r -> Report.find r name <> None) traced
        in
        if measured && not (List.mem_assoc name e2e_names) then
          print_metric workload name (layer_value ~untraced ~traced name) unit)
      per_layer;
    List.iter
      (fun r ->
        List.iter
          (fun (name, n, total, self) ->
            Printf.printf "%-13s span %-26s n=%-7d total %.4fs self %.4fs\n" workload
              name n total self)
          r.Report.spans)
      traced
  end;
  let path = write_results ~out ~workload ~seed ~untraced ~traced in
  Printf.printf "%-13s results %s%s\n" workload path
    (if trace then ", trace " ^ trace_path out workload else "");
  List.iter (fun p -> prerr_endline ("FAIL: " ^ p)) problems;
  problems = []

(* {1 calibrate} *)

(* [runs] measure-mode runs of one seed per workload. The inputs
   are the same every time, so the spread left is the machine's: what a
   comparison of two commits on one seed has to see past. A spread above
   a third of the metric's bound is flagged WIDE. *)
let calibrate ~out ~smoke ~runs ~seed ~seconds workloads =
  let ok = ref true in
  List.iter
    (fun workload ->
      let medians =
        List.init runs (fun _ ->
            let rs, _ = collect ~out ~smoke ~workload ~seed ~seconds ~trace:false in
            List.iter
              (fun p ->
                ok := false;
                prerr_endline ("FAIL: " ^ p))
              (failures rs @ determinism_failures rs);
            ( List.length rs,
              List.map (fun (name, _, _, _) -> (name, median_of rs name)) end_to_end ))
      in
      Printf.printf
        "== %s: %d runs of seed %d, each the median of the reps in %d s (%s reps)\n" workload
        runs seed seconds
        (String.concat "/" (List.map (fun (n, _) -> string_of_int n) medians));
      Printf.printf "%-14s %12s %10s %10s %8s\n" "metric" "median" "iqr/med" "range/med"
        "bound";
      List.iter
        (fun (name, _, _, bound) ->
          let vs =
            List.filter_map (fun (_, run) -> Option.join (List.assoc_opt name run)) medians
          in
          let iqr = Stats.iqr_share vs in
          Printf.printf "%-14s %12.6g %10.4f %10.4f %8.2f%s\n%!" name (Stats.median vs) iqr
            (Stats.range_share vs) bound
            (if iqr > bound /. 3.0 then "  WIDE" else ""))
        end_to_end)
    workloads;
  !ok

(* {1 Arguments} *)

let () =
  let sub, args =
    match List.tl (Array.to_list Sys.argv) with
    | ("run" | "calibrate" | "rep" | "manifest") as s :: rest -> (s, rest)
    | args -> ("measure", args)
  in
  let workloads = ref [] and seed = ref 1 and seconds = ref run_seconds in
  let trace = ref false and no_trace = ref false and smoke = ref false in
  let reps = ref 3 and runs = ref 5 in
  let out =
    ref
      (Filename.concat
         (Option.value ~default:"." (Sys.getenv_opt "DUNE_SOURCEROOT"))
         (Filename.concat "_build" "benchmark"))
  in
  let spec =
    [ ( "--workload",
        Arg.String (fun w -> workloads := !workloads @ [ w ]),
        "W workload (repeatable)" );
      ("--seed", Arg.Set_int seed, "S input seed (default 1)");
      ( "--seconds",
        Arg.Set_int seconds,
        Printf.sprintf "T measure for about T seconds (default %d)" run_seconds );
      ( "--trace",
        (if sub = "measure" then Arg.Int (fun t -> trace := t <> 0) else Arg.Set trace),
        " trace (0|1 in measure mode)" );
      ("--no-trace", Arg.Set no_trace, " skip the traced rep");
      ("--reps", Arg.Set_int reps, "N untraced reps per workload (default 3)");
      ("--runs", Arg.Set_int runs, "N calibration runs of the seed (default 5)");
      ("--smoke", Arg.Set smoke, " tiny sizes, every correctness check");
      ("--out", Arg.Set_string out, "DIR results and traces (default _build/benchmark)") ]
  in
  (try
     Arg.parse_argv
       (Array.of_list (Sys.argv.(0) :: args))
       spec
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       "benchmark/main.exe [run|calibrate|manifest] [options]"
   with Arg.Bad m | Arg.Help m ->
     prerr_string m;
     exit 2);
  let workloads =
    List.map
      (fun name ->
        match Workloads.find name with
        | Some w -> w
        | None ->
          prerr_endline ("unknown workload " ^ name);
          exit 2)
      !workloads
  in
  let chosen = if workloads = [] then Workloads.all else workloads in
  let names = List.map (fun (w : Workloads.workload) -> w.name) chosen in
  match sub with
  | "manifest" -> manifest ()
  | _ -> (
    mkdir_p !out;
    match sub with
    | "rep" ->
      rep_main ~w:(List.hd chosen) ~seed:!seed ~traced:!trace ~smoke:!smoke ~out:!out
    | "run" ->
      let t0 = Unix.gettimeofday () in
      let ok =
        List.fold_left
          (fun ok w ->
            run_workload ~out:!out ~smoke:!smoke ~seed:!seed ~reps:!reps
              ~trace:(not !no_trace) w
            && ok)
          true names
      in
      Printf.printf "total %.1fs, %s\n" (Unix.gettimeofday () -. t0)
        (if ok then "all checks passed" else "CHECKS FAILED");
      if not ok then exit 1
    | "calibrate" ->
      if
        not
          (calibrate ~out:!out ~smoke:!smoke ~runs:!runs ~seed:!seed ~seconds:!seconds names)
      then exit 1
    | _ -> (
      match workloads with
      | [ w ] ->
        measure ~workload:w.Workloads.name ~seed:!seed ~seconds:!seconds ~trace:!trace
          ~out:!out
      | _ ->
        prerr_endline "measure mode needs exactly one --workload";
        exit 2))
