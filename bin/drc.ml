(* drc — the dynamic-reconfiguration platform's command-line tool.

     drc transform module.mp --point proc:R      instrument a module
     drc graph module.mp --point proc:R          reconfiguration graph
     drc callgraph module.mp                     static call graph
     drc check --mil app.mil --src m=path ...    validate a configuration
     drc run --mil app.mil --src m=path --app a  deploy and simulate
     drc run ... --wal DIR                       ... with a durable control log
     drc recover DIR                             audit a control log
     drc mc --config single-replace              model-check a configuration
     drc mc --repro cex.sched --trace            replay a counterexample
     drc roll --replicas 3 --target rstorev2     rolling replacement demo
     drc exec module.mp                          run one module standalone *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_program_file path =
  try Ok (Dr_lang.Parser.parse_program (read_file path)) with
  | Dr_lang.Parser.Error (message, line) ->
    Error (Printf.sprintf "%s:%d: %s" path line message)
  | Dr_lang.Lexer.Error (message, line) ->
    Error (Printf.sprintf "%s:%d: %s" path line message)
  | Sys_error e -> Error e

let parse_point spec =
  match String.split_on_char ':' spec with
  | [ proc; label ] when proc <> "" && label <> "" ->
    Ok { Dr_transform.Instrument.pt_proc = proc; pt_label = label; pt_vars = None }
  | _ -> Error (`Msg (Printf.sprintf "bad point %S: expected proc:label" spec))

let point_conv =
  Arg.conv
    ( (fun s -> parse_point s),
      fun ppf p ->
        Fmt.pf ppf "%s:%s" p.Dr_transform.Instrument.pt_proc
          p.Dr_transform.Instrument.pt_label )

let parse_source_binding spec =
  match String.index_opt spec '=' with
  | Some i ->
    Ok (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
  | None -> Error (`Msg (Printf.sprintf "bad source %S: expected module=path" spec))

let src_conv =
  Arg.conv
    ( (fun s -> parse_source_binding s),
      fun ppf (m, p) -> Fmt.pf ppf "%s=%s" m p )

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniProc source file.")

let points_arg =
  Arg.(
    value & opt_all point_conv []
    & info [ "point"; "p" ] ~docv:"PROC:LABEL"
        ~doc:"Reconfiguration point (repeatable).")

let liveness_arg =
  Arg.(
    value & flag
    & info [ "liveness" ]
        ~doc:"Trim capture sets with live-variable analysis (paper §3's \
              suggested refinement).")

let or_die = function
  | Ok v -> v
  | Error e ->
    prerr_endline ("error: " ^ e);
    exit 1

(* Validated numeric converters for counts, bounds and durations: zero
   and negative values are configuration mistakes, rejected at parse
   time with an error that names the flag. *)

let positive_int_conv ~flag =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | None ->
          Error (`Msg (Printf.sprintf "%s: expected an integer, got %S" flag s))
        | Some n when n <= 0 ->
          Error
            (`Msg
               (Printf.sprintf "%s: must be at least 1 (got %d)" flag n))
        | Some n -> Ok n),
      Fmt.int )

(* A finite number of [unit] that [ok] accepts ([must] says which):
   NaN and infinity are refused with the out-of-range values. *)
let finite_float_conv ~flag ~unit ~must ok =
  Arg.conv
    ( (fun s ->
        match float_of_string_opt s with
        | None ->
          Error (`Msg (Printf.sprintf "%s: expected %s, got %S" flag unit s))
        | Some x when not (Float.is_finite x && ok x) ->
          Error
            (`Msg
               (Printf.sprintf "%s: must be a %s number of %s (got %s)" flag
                  must unit s))
        | Some x -> Ok x),
      fun ppf x -> Fmt.pf ppf "%g" x )

let positive_float_conv ~flag ~unit =
  finite_float_conv ~flag ~unit ~must:"positive" (fun x -> x > 0.0)

let positive_ms_conv ~flag = positive_float_conv ~flag ~unit:"milliseconds"

let retry_arg =
  Arg.(
    value
    & opt (some (positive_int_conv ~flag:"--retry")) None
    & info [ "retry" ] ~docv:"N"
        ~doc:
          "Attempt a failed operation up to N times in total (including \
           the first try). Must be at least 1.")

let backoff_arg =
  Arg.(
    value
    & opt (some (positive_ms_conv ~flag:"--backoff")) None
    & info [ "backoff" ] ~docv:"MS"
        ~doc:
          "Delay between attempts, in milliseconds (virtual time for \
           simulated runs, wall clock for $(b,drc exec)). Must be \
           positive. Default 1000.")

(* --retry/--backoff into a Script retry policy; None when neither flag
   was given so single-shot runs keep the classic fail-fast watch *)
let retry_policy retry backoff =
  match (retry, backoff) with
  | None, None -> None
  | _ ->
    Some
      { Dr_reconfig.Script.attempts = Option.value retry ~default:1;
        backoff = Option.value backoff ~default:1000.0 /. 1000.0;
        alt_hosts = [] }

(* ------------------------------------------------------------ transform *)

let transform_cmd =
  let run file points liveness =
    let program = or_die (parse_program_file file) in
    let options = { Dr_transform.Instrument.default_options with use_liveness = liveness } in
    match Dr_transform.Instrument.prepare ~options program ~points with
    | Error e ->
      prerr_endline ("error: " ^ e);
      exit 1
    | Ok prepared ->
      print_string
        (Dr_lang.Pretty.program_to_string prepared.Dr_transform.Instrument.prepared_program)
  in
  Cmd.v
    (Cmd.info "transform"
       ~doc:"Prepare a module for reconfiguration (emit instrumented source).")
    Term.(const run $ file_arg $ points_arg $ liveness_arg)

(* ---------------------------------------------------------------- graph *)

let dot_arg = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz.")

let graph_cmd =
  let run file points dot =
    let program = or_die (parse_program_file file) in
    let pts =
      List.map
        (fun p -> (p.Dr_transform.Instrument.pt_proc, p.Dr_transform.Instrument.pt_label))
        points
    in
    match Dr_analysis.Reconfig_graph.build program ~points:pts with
    | Error e ->
      prerr_endline ("error: " ^ e);
      exit 1
    | Ok graph ->
      if dot then print_string (Dr_analysis.Reconfig_graph.to_dot graph)
      else Fmt.pr "%a@." Dr_analysis.Reconfig_graph.pp graph
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Build and print the reconfiguration graph (Fig. 6).")
    Term.(const run $ file_arg $ points_arg $ dot_arg)

let callgraph_cmd =
  let run file dot =
    let program = or_die (parse_program_file file) in
    let graph = Dr_analysis.Callgraph.build program in
    if dot then print_string (Dr_analysis.Callgraph.to_dot graph)
    else
      List.iter
        (fun (s : Dr_analysis.Callgraph.site) ->
          Printf.printf "%s -> %s (line %d%s)\n" s.caller s.callee s.line
            (match s.position with
            | Dr_analysis.Callgraph.Expr_call -> ", expression"
            | Dr_analysis.Callgraph.Stmt_call -> ""))
        (Dr_analysis.Callgraph.sites graph)
  in
  Cmd.v
    (Cmd.info "callgraph" ~doc:"Print the static call graph of a module.")
    Term.(const run $ file_arg $ dot_arg)

let advise_cmd =
  let run file =
    let program = or_die (parse_program_file file) in
    (match Dr_lang.Typecheck.check program with
    | Ok () -> ()
    | Error errors ->
      List.iter (fun e -> Fmt.epr "error: %a@." Dr_lang.Typecheck.pp_error e) errors;
      exit 1);
    match Dr_analysis.Placement.advise program with
    | [] ->
      print_endline
        "no labelled statements found; add candidate labels to rank them"
    | advices ->
      List.iter (fun a -> Fmt.pr "%a@." Dr_analysis.Placement.pp_advice a) advices;
      print_endline
        "\nguidance (paper §4): prefer warm/cold points outside computationally\n\
         intensive loops; points in hot loops respond fastest but cost the most\n\
         flag tests and can inhibit optimisation."
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:"Rank labelled statements as candidate reconfiguration points.")
    Term.(const run $ file_arg)

let optimize_cmd =
  let run file stats_only =
    let program = or_die (parse_program_file file) in
    (match Dr_lang.Typecheck.check program with
    | Ok () -> ()
    | Error errors ->
      List.iter (fun e -> Fmt.epr "error: %a@." Dr_lang.Typecheck.pp_error e) errors;
      exit 1);
    let optimized, stats = Dr_opt.Optimize.optimize program in
    if not stats_only then
      print_string (Dr_lang.Pretty.program_to_string optimized);
    Fmt.epr
      "[optimize] folded %d expression(s), pruned %d branch(es), hoisted %d \
       assignment(s); %d loop(s) pinned by labels@."
      stats.folded stats.pruned stats.hoisted stats.blocked_by_labels
  in
  let stats_only =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print statistics only.")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Constant-fold and hoist loop invariants (labels are motion \
             barriers).")
    Term.(const run $ file_arg $ stats_only)

(* ---------------------------------------------------------------- check *)

let mil_arg =
  Arg.(
    required & opt (some file) None
    & info [ "mil" ] ~docv:"FILE" ~doc:"Configuration specification file.")

let srcs_arg =
  Arg.(
    value & opt_all src_conv []
    & info [ "src" ] ~docv:"MODULE=PATH" ~doc:"Module source (repeatable).")

let load_system mil srcs =
  let sources = List.map (fun (m, path) -> (m, read_file path)) srcs in
  Dynrecon.System.load ~mil:(read_file mil) ~sources ()

let check_cmd =
  let run mil srcs =
    match load_system mil srcs with
    | Ok system ->
      List.iter
        (fun (m : Dynrecon.System.loaded_module) ->
          Printf.printf "module %-12s %s\n" m.lm_name
            (match m.lm_prepared with
            | Some prepared ->
              Printf.sprintf "prepared (%d reconfiguration edge(s))"
                (List.length prepared.Dr_transform.Instrument.graph.edges)
            | None -> "no reconfiguration points"))
        system.modules;
      print_endline "configuration OK"
    | Error e ->
      prerr_endline ("error: " ^ e);
      exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Validate a configuration and its module sources; prepare modules.")
    Term.(const run $ mil_arg $ srcs_arg)

(* ------------------------------------------------------------------ run *)

let app_arg =
  Arg.(
    required & opt (some string) None
    & info [ "app" ] ~docv:"NAME" ~doc:"Application to deploy.")

let until_arg =
  Arg.(
    value
    & opt
        (finite_float_conv ~flag:"--until" ~unit:"virtual time units"
           ~must:"non-negative" (fun x -> x >= 0.0))
        100.0
    & info [ "until" ] ~docv:"T"
        ~doc:"Virtual time to simulate. Must be finite and non-negative.")

let hosts_arg =
  Arg.(
    value
    & opt_all string [ "hostA=x86_64"; "hostB=sparc32"; "hostC=arm32" ]
    & info [ "host" ] ~docv:"NAME=ARCH" ~doc:"Simulated host (repeatable).")

(* INST:NEW:HOST@T, with T a finite, non-negative virtual time *)
let migrate_conv =
  let parse spec =
    match
      Scanf.sscanf_opt spec "%s@:%s@:%s@@%f%!" (fun a b c t -> (a, b, c, t))
    with
    | None -> Error (`Msg (Printf.sprintf "bad --migrate %S" spec))
    | Some (_, _, _, t) when not (Float.is_finite t && t >= 0.0) ->
      Error
        (`Msg
           (Printf.sprintf
              "bad --migrate %S: the time must be finite and non-negative" spec))
    | Some m -> Ok m
  in
  Arg.conv
    ( parse,
      fun ppf (inst, fresh, host, t) -> Fmt.pf ppf "%s:%s:%s@%g" inst fresh host t )

let migrate_arg =
  Arg.(
    value & opt (some migrate_conv) None
    & info [ "migrate" ] ~docv:"INST:NEW:HOST@T"
        ~doc:
          "Migrate INST to HOST as NEW at virtual time T (finite, \
           non-negative).")

let precopy_arg =
  Arg.(
    value & flag
    & info [ "precopy" ]
        ~doc:
          "Live pre-copy: let the module serve on to its next \
           reconfiguration point, then freeze it there and ship its full \
           image. Shrinks the disruption window; the outcome is unchanged.")

let trace_arg = Arg.(value & flag & info [ "trace" ] ~doc:"Dump the bus trace.")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Seeded fault-injection plan: comma-separated clauses seed=N, \
           loss=P, dup=P (optionally scoped loss@SRC>DST=P with * wildcards), \
           jitter=J, crash=HOST@T, recover=HOST@T, kill=INSTANCE@T, \
           corrupt=INSTANCE@T (corrupt the next state image captured from \
           INSTANCE after time T), ctlcrash@N (crash the controller after \
           its Nth control-log append; requires --wal).")

let reliable_arg =
  Arg.(
    value & flag
    & info [ "reliable" ]
        ~doc:
          "Layer reliable delivery (sequencing, acknowledgement, \
           retransmission) over every route, masking injected loss and \
           duplication.")

let timeline_arg =
  Arg.(value & flag & info [ "timeline" ] ~doc:"Draw an ASCII timeline of the run.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"OUT.json"
        ~doc:
          "Attach the metrics plane (counters, gauges, reconfiguration \
           span trees) and write a JSON snapshot to OUT.json at the end of \
           the run; a text rendering of the disruption windows is printed \
           to stdout. Observation is passive: the simulated event sequence \
           is identical with or without this flag.")

let wal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ] ~docv:"DIR"
        ~doc:
          "Attach a durable control log in DIR (created if missing). Every \
           journalled reconfiguration primitive is appended — durably, \
           before it applies — so a controller crash (ctlcrash@N) leaves a \
           log that $(b,drc recover) can audit and replay.")

let attach_wal bus dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let storage = Dr_wal.Storage.file ~dir in
  match Dr_wal.Wal.create storage with
  | Error e -> or_die (Error (Printf.sprintf "--wal %s: %s" dir e))
  | Ok wal ->
    let r = Dr_wal.Wal.open_report wal in
    if r.or_records > 0 || r.or_truncated_bytes > 0 then
      Printf.printf
        "control log: %d segment(s), %d live record(s), last lsn %d%s\n"
        r.or_segments r.or_records r.or_last_lsn
        (if r.or_truncated_bytes > 0 then
           Printf.sprintf " (torn tail: %d byte(s) truncated)"
             r.or_truncated_bytes
         else "");
    Dr_bus.Bus.set_wal bus wal

let parse_hosts specs =
  List.map
    (fun spec ->
      match String.split_on_char '=' spec with
      | [ name; arch ] -> (
        match Dr_state.Arch.by_name arch with
        | Some arch -> { Dr_bus.Bus.host_name = name; arch }
        | None -> failwith (Printf.sprintf "unknown architecture %s" arch))
      | _ -> failwith (Printf.sprintf "bad host %S" spec))
    specs

let run_cmd =
  let run mil srcs app until hosts migrate precopy retry backoff faults
      reliable trace timeline metrics wal =
    let system = match load_system mil srcs with Ok s -> s | Error e -> or_die (Error e) in
    let hosts = parse_hosts hosts in
    let bus =
      match Dynrecon.System.start system ~app ~hosts () with
      | Ok bus -> bus
      | Error e -> or_die (Error e)
    in
    Option.iter (attach_wal bus) wal;
    let registry =
      match metrics with
      | None -> Dr_bus.Bus.metrics bus (* DRC_METRICS may have attached one *)
      | Some _ ->
        let r =
          match Dr_bus.Bus.metrics bus with
          | Some r -> r
          | None ->
            let r = Dr_obs.Metrics.create () in
            Dr_bus.Bus.set_metrics bus r;
            r
        in
        Some r
    in
    (match faults with
    | None -> ()
    | Some spec -> (
      match Dr_bus.Faults.parse_plan spec with
      | Ok (seed, plan) -> Dr_bus.Faults.install bus ~seed plan
      | Error e -> or_die (Error e)));
    if reliable then begin
      let r = Dr_bus.Reliable.attach bus in
      Dr_bus.Reliable.enable_all r
    end;
    (match migrate with
    | None -> Dr_bus.Bus.run ~until bus
    | Some (inst, fresh, host, t) ->
      Dr_bus.Bus.run ~until:t bus;
      (match
         Dynrecon.System.migrate bus ~precopy
           ?retry:(retry_policy retry backoff) ~instance:inst
           ~new_instance:fresh ~new_host:host
       with
      | Ok _ -> Printf.printf "migrated %s -> %s on %s\n" inst fresh host
      | Error e when Dr_bus.Bus.controller_down bus ->
        Printf.printf "migration abandoned: %s\n" e
      | Error e -> or_die (Error e));
      Dr_bus.Bus.run ~until bus);
    if Dr_bus.Bus.controller_down bus then begin
      Printf.printf
        "controller crashed after control-log append %d; replaying the log\n"
        (Dr_bus.Bus.ctl_appends bus);
      match Dr_reconfig.Recovery.replay bus with
      | Ok report ->
        Fmt.pr "recovery: %a@." Dr_reconfig.Recovery.pp_report report;
        Dr_bus.Bus.run ~until bus
      | Error e -> or_die (Error ("recovery failed: " ^ e))
    end;
    List.iter
      (fun inst ->
        Printf.printf "--- %s (%s) ---\n" inst
          (Option.value ~default:"?" (Dr_bus.Bus.instance_host bus ~instance:inst));
        List.iter (Printf.printf "%s\n") (Dr_bus.Bus.outputs bus ~instance:inst))
      (Dr_bus.Bus.instances bus);
    if timeline then print_string (Dr_report.Timeline.render bus);
    (match (metrics, registry) with
    | Some path, Some r ->
      let now = Dr_bus.Bus.now bus in
      print_string (Dr_report.Obs_report.render ~now r);
      let oc = open_out path in
      output_string oc (Dr_obs.Metrics.snapshot_json ~now r);
      output_char oc '\n';
      close_out oc;
      Printf.printf "metrics snapshot written to %s\n" path
    | _ -> ());
    if trace then Fmt.pr "%a" Dr_sim.Trace.dump (Dr_bus.Bus.trace bus)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Deploy an application and simulate it.")
    Term.(
      const run $ mil_arg $ srcs_arg $ app_arg $ until_arg $ hosts_arg
      $ migrate_arg $ precopy_arg $ retry_arg $ backoff_arg $ faults_arg
      $ reliable_arg $ trace_arg $ timeline_arg $ metrics_arg $ wal_arg)

let inspect_cmd =
  let run file =
    match Dr_reconfig.Freeze.load ~path:file with
    | Error e ->
      prerr_endline ("error: " ^ e);
      exit 1
    | Ok frozen -> (
      match Dr_state.Codec.decode_abstract frozen with
      | Error e ->
        prerr_endline ("error: corrupt image: " ^ e);
        exit 1
      | Ok image ->
        Fmt.pr "%a@." Dr_state.Image.pp image;
        Fmt.pr "abstract encoding: %d byte(s)@." (Bytes.length frozen);
        List.iter
          (fun arch ->
            match Dr_state.Codec.Native.encode arch image with
            | Ok bytes ->
              Fmt.pr "native %-8s %d byte(s)@." arch.Dr_state.Arch.arch_name
                (Bytes.length bytes)
            | Error e ->
              Fmt.pr "native %-8s unrepresentable: %s@."
                arch.Dr_state.Arch.arch_name e)
          Dr_state.Arch.all)
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"IMAGE"
           ~doc:"Frozen state image file (see Freeze.save).")
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Describe a frozen state image.")
    Term.(const run $ file)

(* -------------------------------------------------------------- recover *)

let recover_cmd =
  let run dir verbose =
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      or_die (Error (Printf.sprintf "%s: not a directory" dir));
    let storage = Dr_wal.Storage.file ~dir in
    let wal =
      match Dr_wal.Wal.create storage with
      | Ok wal -> wal
      | Error e -> or_die (Error e)
    in
    let r = Dr_wal.Wal.open_report wal in
    Printf.printf
      "control log: %d segment(s), %d live record(s), checkpoint lsn %d, \
       last lsn %d\n"
      r.or_segments r.or_records
      (Dr_wal.Wal.checkpoint_lsn wal)
      r.or_last_lsn;
    if r.or_truncated_bytes > 0 then
      Printf.printf "torn tail: %d byte(s) truncated\n" r.or_truncated_bytes;
    (match Dr_wal.Wal.check_invariants wal with
    | Ok () -> ()
    | Error e -> or_die (Error ("invariant violation: " ^ e)));
    if verbose then
      List.iter
        (fun (lsn, kind, body) ->
          match Dr_reconfig.Persist.decode ~kind body with
          | Ok record ->
            Printf.printf "%6d  %s\n" lsn (Dr_reconfig.Persist.describe record)
          | Error e -> or_die (Error (Printf.sprintf "lsn %d: %s" lsn e)))
        (Dr_wal.Wal.records wal);
    match Dr_reconfig.Recovery.scan wal with
    | Error e -> or_die (Error e)
    | Ok scripts ->
      List.iter
        (fun (s : Dr_reconfig.Recovery.script) ->
          Printf.printf "script #%d %-24s %d step(s)  %s\n" s.sc_sid
            s.sc_label
            (List.length s.sc_entries)
            (match s.sc_status with
            | Dr_reconfig.Recovery.Committed -> "committed"
            | Dr_reconfig.Recovery.Aborted -> "aborted (rollback complete)"
            | Dr_reconfig.Recovery.Rolling_back { undone; reason } ->
              Printf.sprintf
                "MID-ROLLBACK (%d/%d step(s) undone): %s — replay resumes it"
                undone
                (List.length s.sc_entries)
                reason
            | Dr_reconfig.Recovery.In_flight ->
              "IN FLIGHT — replay rolls it back"))
        scripts;
      let pending =
        List.filter
          (fun (s : Dr_reconfig.Recovery.script) ->
            match s.sc_status with
            | Dr_reconfig.Recovery.In_flight
            | Dr_reconfig.Recovery.Rolling_back _ ->
              true
            | _ -> false)
          scripts
      in
      if pending = [] then print_endline "log is clean: nothing to recover"
      else
        Printf.printf "%d script(s) need recovery (run with --wal to replay)\n"
          (List.length pending)
  in
  let dir =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Control-log directory (as given to --wal).")
  in
  let verbose =
    Arg.(value & flag & info [ "records" ] ~doc:"Print every live record.")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Audit a control log: verify checksums and invariants, heal a torn \
          tail, and report per-script status (committed, aborted, in flight, \
          mid-rollback).")
    Term.(const run $ dir $ verbose)

(* ----------------------------------------------------------------- roll *)

(* A self-contained rolling-replacement demo over the bundled replica
   workload: the canary judgement needs live traffic recorded into the
   Rolling metric contract, so the command deploys the kvstore replica
   group and its load generator rather than an arbitrary --mil app. *)
let roll_cmd =
  let run replicas rate target retry backoff drain window precopy supervise
      faults wal =
    let module Kv = Dr_workloads.Kvstore in
    let module Rolling = Dr_reconfig.Rolling in
    let n = replicas in
    let system = Kv.Replica.load ~n in
    let bus =
      match
        Dynrecon.System.start system ~app:"rgroup" ~hosts:(Kv.Replica.hosts ~n)
          ~default_host:"rh1" ()
      with
      | Ok bus -> bus
      | Error e -> or_die (Error e)
    in
    Option.iter (attach_wal bus) wal;
    (match faults with
    | None -> ()
    | Some spec -> (
      match Dr_bus.Faults.parse_plan spec with
      | Ok (seed, plan) -> Dr_bus.Faults.install bus ~seed plan
      | Error e -> or_die (Error e)));
    let group = Kv.Replica.group ~n in
    let supervisor =
      if supervise then
        Some
          (Dr_reconfig.Supervisor.start bus ~watch:(List.map snd group) ())
      else None
    in
    let lg =
      Kv.Loadgen.start bus
        { Kv.Loadgen.default_conf with lc_rate = rate; lc_duration = 500.0 }
        ~slots:group
    in
    Dr_bus.Bus.run ~until:10.0 bus;
    let cfg =
      { (Rolling.default_config ~target) with
        rc_drain_timeout = drain;
        rc_canary_window = window;
        rc_precopy = precopy;
        rc_retries = Option.value retry ~default:3;
        rc_backoff = Option.value backoff ~default:2000.0 /. 1000.0 }
    in
    Printf.printf "rolling %d replica(s) to %s...\n" n target;
    (match
       Rolling.run bus cfg ~group ?supervisor
         ~on_retarget:(fun ~slot ~instance ->
           Kv.Loadgen.retarget lg ~slot ~instance)
         ()
     with
    | Ok report -> Fmt.pr "%a@." Rolling.pp_report report
    | Error e when Dr_bus.Bus.controller_down bus -> (
      Printf.printf "wave interrupted: %s\n" e;
      match Rolling.recover bus with
      | Error e -> or_die (Error ("recovery failed: " ^ e))
      | Ok (report, waves) ->
        Fmt.pr "recovery: %a@." Dr_reconfig.Recovery.pp_report report;
        List.iter
          (fun (w : Dr_reconfig.Recovery.wave) ->
            Printf.printf "wave #%d -> %s: %s, %d slot(s) done\n" w.wv_wid
              w.wv_target
              (match w.wv_status with
              | Dr_reconfig.Recovery.Wave_committed -> "committed"
              | Dr_reconfig.Recovery.Wave_aborted r -> "aborted (" ^ r ^ ")"
              | Dr_reconfig.Recovery.Wave_open ->
                "open — roster held, re-roll at your discretion")
              (List.length w.wv_done))
          waves)
    | Error e -> or_die (Error e));
    Kv.Loadgen.stop lg;
    Dr_bus.Bus.run ~until:(Dr_bus.Bus.now bus +. 30.0) bus;
    let s = Kv.Loadgen.stats lg in
    Printf.printf
      "traffic: %d sent, %d answered, %d wrong, %d shed, %d duplicated, %d \
       in flight\n"
      s.st_sent s.st_answered s.st_wrong s.st_shed s.st_duplicated
      s.st_inflight;
    if s.st_inflight <> 0 || s.st_sent <> s.st_answered + s.st_shed then
      or_die (Error "request accounting violated (lost traffic)")
  in
  let replicas =
    Arg.(
      value
      & opt (positive_int_conv ~flag:"--replicas") 3
      & info [ "replicas" ] ~docv:"N" ~doc:"Replica-group size (default 3).")
  in
  let rate =
    Arg.(
      value
      & opt
          (positive_float_conv ~flag:"--rate"
             ~unit:"requests per unit of virtual time")
          4.0
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Client request rate, requests per unit of virtual time. Must \
             be positive.")
  in
  let target =
    Arg.(
      value & opt string "rstorev2"
      & info [ "target" ] ~docv:"MODULE"
          ~doc:
            "Module to roll the group to: $(b,rstorev2) (the good v2 \
             build) or $(b,rstorebad) (the deliberately-bad canary \
             build, to watch the SLO gates roll it back).")
  in
  let vtime_conv ~flag = positive_float_conv ~flag ~unit:"virtual time units" in
  let drain =
    Arg.(
      value
      & opt (vtime_conv ~flag:"--drain") 6.0
      & info [ "drain" ] ~docv:"T"
          ~doc:"Drain timeout per replica, virtual time. Must be positive.")
  in
  let window =
    Arg.(
      value
      & opt (vtime_conv ~flag:"--window") 8.0
      & info [ "window" ] ~docv:"T"
          ~doc:"Canary observation window, virtual time. Must be positive.")
  in
  let supervise =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "Start a crash supervisor over the group; the wave adopts \
             each new generation so supervision survives the upgrades.")
  in
  Cmd.v
    (Cmd.info "roll"
       ~doc:
         "Roll a live replica group to a new build: drain, replace, \
          canary under SLO gates, rollback on failure — a demo of the \
          autonomic rolling-replacement controller over the bundled \
          kvstore replica workload.")
    Term.(
      const run $ replicas $ rate $ target $ retry_arg $ backoff_arg $ drain
      $ window $ precopy_arg $ supervise $ faults_arg $ wal_arg)

(* ----------------------------------------------------------------- exec *)

let exec_cmd =
  let run file max_steps faults trace retry backoff =
    let program = or_die (parse_program_file file) in
    (match Dr_lang.Typecheck.check program with
    | Ok () -> ()
    | Error errors ->
      List.iter
        (fun e -> Fmt.epr "error: %a@." Dr_lang.Typecheck.pp_error e)
        errors;
      exit 1);
    let crash_at =
      match faults with
      | None -> None
      | Some spec -> (
        match Scanf.sscanf_opt spec "kill@%d" (fun n -> n) with
        | Some n when n > 0 -> Some n
        | _ ->
          or_die (Error (Printf.sprintf "bad --faults %S: expected kill@N" spec)))
    in
    let attempts = Option.value retry ~default:1 in
    let backoff_ms = Option.value backoff ~default:1000.0 in
    let one_attempt () =
      let io = Dr_interp.Io_intf.null ~print:print_endline () in
      let machine = Dr_interp.Machine.create ~io program in
      let executed = ref 0 in
      if trace || Option.is_some crash_at then
        Dr_interp.Machine.set_tracer machine
          (Some
             (fun proc pc instr ->
               incr executed;
               (match crash_at with
               | Some n when !executed = n ->
                 Dr_interp.Machine.force_crash machine "injected crash"
               | _ -> ());
               if trace then
                 Fmt.epr "[trace] %-12s %4d  %a@." proc pc Dr_interp.Ir.pp_instr
                   instr));
      Dr_interp.Machine.run ~max_steps machine;
      machine
    in
    let rec go attempt =
      let machine = one_attempt () in
      (match Dr_interp.Machine.status machine with
      | Dr_interp.Machine.Crashed reason when attempt < attempts ->
        (* exponential backoff, wall clock: standalone execution has no
           virtual clock to wait on *)
        let delay_ms = backoff_ms *. (2.0 ** float_of_int (attempt - 1)) in
        Fmt.pr "[attempt %d/%d crashed: %s; retrying in %g ms]@." attempt
          attempts reason delay_ms;
        Unix.sleepf (delay_ms /. 1000.0);
        go (attempt + 1)
      | _ ->
        Fmt.pr "[%a after %d instruction(s)%s]@." Dr_interp.Machine.pp_status
          (Dr_interp.Machine.status machine)
          (Dr_interp.Machine.instr_count machine)
          (if attempt > 1 then Printf.sprintf ", attempt %d/%d" attempt attempts
           else ""))
    in
    go 1
  in
  let max_steps =
    Arg.(
      value & opt int 10_000_000
      & info [ "max-steps" ] ~docv:"N" ~doc:"Instruction budget.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print each executed instruction.")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"kill@N"
          ~doc:"Inject a crash after N executed instructions.")
  in
  Cmd.v
    (Cmd.info "exec" ~doc:"Run a single module standalone (no bus).")
    Term.(
      const run $ file_arg $ max_steps $ faults $ trace $ retry_arg
      $ backoff_arg)

(* ------------------------------------------------------------------- mc *)

(* Systematic state-space exploration of the checked configuration
   catalogue (Dr_mc.Configs), and replay of recorded counterexample
   schedules. *)
let mc_cmd =
  let module Explorer = Dr_mc.Explorer in
  let module Configs = Dr_mc.Configs in
  let run config_name mode depth max_execs list repro trace_dump =
    if list then begin
      List.iter print_endline Configs.names;
      exit 0
    end;
    let parse_mode = function
      | "naive" -> Explorer.Naive
      | "sleep" -> Explorer.Sleep
      | "dpor" -> Explorer.Dpor
      | m -> or_die (Error (Printf.sprintf "unknown mode %S" m))
    in
    let get_config name =
      match Configs.by_name name with
      | Some cfg -> cfg
      | None ->
        or_die
          (Error
             (Printf.sprintf "unknown config %S (try: %s)" name
                (String.concat ", " Configs.names)))
    in
    match repro with
    | Some path -> (
      let text = read_file path in
      match Explorer.schedule_of_string text with
      | Error e -> or_die (Error (path ^ ": " ^ e))
      | Ok (header_name, tokens) ->
        let name =
          match (config_name, header_name) with
          | Some n, _ -> n  (* explicit flag wins over the file header *)
          | None, Some n -> n
          | None, None ->
            or_die
              (Error "schedule has no `config NAME` header; pass --config")
        in
        let cfg = get_config name in
        Printf.printf "replaying %d-choice schedule against %s\n"
          (List.length tokens) name;
        let r = Explorer.replay cfg tokens in
        Printf.printf "end: %s\n" r.Explorer.rp_end;
        (match (r.Explorer.rp_violation, r.Explorer.rp_run) with
        | Some v, _ ->
          Printf.printf "VIOLATION [%s] %s\n" v.Dr_mc.Monitor.v_monitor
            v.Dr_mc.Monitor.v_detail
        | None, Some _ -> Printf.printf "no monitor fired\n"
        | None, None -> ());
        (match r.Explorer.rp_run with
        | Some run when trace_dump ->
          print_endline "--- trace ---";
          Fmt.pr "%a@." Dr_sim.Trace.dump
            (Dr_bus.Bus.trace run.Explorer.r_bus)
        | _ -> ());
        (* a schedule that does not replay tested nothing: fail as
           loudly as a monitor that fired *)
        if r.Explorer.rp_violation <> None || r.Explorer.rp_run = None then
          exit 1)
    | None ->
      let name = Option.value config_name ~default:"single-replace" in
      let cfg = get_config name in
      let cfg =
        { cfg with
          Explorer.c_depth = Option.value depth ~default:cfg.Explorer.c_depth;
          c_max_execs =
            Option.value max_execs ~default:cfg.Explorer.c_max_execs }
      in
      let r = Explorer.explore ~mode:(parse_mode mode) cfg in
      Fmt.pr "%a" Explorer.pp_result r;
      List.iter
        (fun ((v : Dr_mc.Monitor.violation), sched) ->
          Printf.printf
            "\nsave the schedule below and re-run it with `drc mc --repro \
             FILE`:\n%s"
            (Explorer.schedule_to_string ~config_name:name sched);
          ignore v)
        r.Explorer.res_violations;
      if r.Explorer.res_violations <> [] then exit 1
  in
  let config_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "config" ] ~docv:"NAME"
          ~doc:"Checked configuration (see --list).")
  in
  let mode_arg =
    Arg.(
      value & opt string "dpor"
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Reduction tier: naive, sleep, or dpor.")
  in
  let depth_arg =
    Arg.(
      value
      & opt (some (positive_int_conv ~flag:"--depth")) None
      & info [ "depth" ] ~docv:"N"
          ~doc:"Override the per-execution depth bound. Must be at least 1.")
  in
  let max_execs_arg =
    Arg.(
      value
      & opt (some (positive_int_conv ~flag:"--max-execs")) None
      & info [ "max-execs" ] ~docv:"N"
          ~doc:"Override the execution cap. Must be at least 1.")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List checked configurations.")
  in
  let repro_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "repro" ] ~docv:"FILE"
          ~doc:
            "Replay a recorded counterexample schedule instead of exploring. \
             Exits 1 when a monitor fires or when the schedule does not \
             replay (a choice the configuration does not enable).")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ] ~doc:"With --repro: dump the full simulation trace.")
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Model-check a reconfiguration protocol configuration: explore \
          every interleaving (with DPOR reduction), check the delivery / \
          epoch / state-transfer / restart / journal monitors, and replay \
          minimized counterexamples.")
    Term.(
      const run $ config_arg $ mode_arg $ depth_arg $ max_execs_arg $ list_arg
      $ repro_arg $ trace_arg)

let () =
  let info =
    Cmd.info "drc" ~version:"1.0.0"
      ~doc:"Dynamic reconfiguration platform for distributed applications."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ transform_cmd; graph_cmd; callgraph_cmd; advise_cmd; optimize_cmd;
            check_cmd; run_cmd; roll_cmd; exec_cmd; inspect_cmd; recover_cmd; mc_cmd ]))
