(* The four fixed-work workloads. Each one sets up (timed as setup_s),
   runs a fixed amount of work — fixed by virtual horizon or operation
   count, never by event budget — (timed as run_s), checks the outputs,
   and reports its metrics into a [Report.t]. Tracing only adds wall
   clock spans and counters around the same calls; every deterministic
   output must come out identical with it on (checked by the caller). *)

module Bus = Dr_bus.Bus
module Engine = Dr_sim.Engine
module Metrics = Dr_obs.Metrics
module Prng = Dr_sim.Prng
module Machine = Dr_interp.Machine
module Script = Dr_reconfig.Script
module Rolling = Dr_reconfig.Rolling
module System = Dynrecon.System
module Ring = Dr_workloads.Ring
module Kv = Dr_workloads.Kvstore
module Explorer = Dr_mc.Explorer
module Configs = Dr_mc.Configs

type ctx = {
  seed : int;
  smoke : bool;  (* tiny sizes: exercises every check in a second or two *)
  traced : bool;
}

type workload = {
  name : string;
  why : string;
  run : ctx -> Report.t -> Metrics.t option;
      (* the metrics registry, when the workload attached one, for the
         trace file's virtual-time track *)
}

let ok_exn what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Set up [batch] times in a row, [batches] times over, and report the
   median batch's time per set-up. Sub-millisecond set-ups are too short
   to time one at a time, so [batch] is chosen to make a timed batch
   last at least 5 ms. Each set-up starts from an empty program cache,
   as a fresh process would; the last one's result is used. *)
let setup r ~batches ~batch f =
  let last = ref None in
  let per_setup =
    List.init batches (fun _ ->
        let total = ref 0.0 in
        for _ = 1 to batch do
          Dr_interp.Cache.reset ();
          let v, dt = timed f in
          total := !total +. dt;
          last := Some v
        done;
        !total /. float_of_int batch)
  in
  Report.e2e r "setup_s" "s" (Stats.median per_setup);
  Option.get !last

(* The fixed-work phase: wall time, GC deltas, and the process's peak
   heap once it is done. *)
let fixed_work r f =
  let before = Gc.quick_stat () in
  let v, run_s = timed f in
  let after = Gc.quick_stat () in
  Report.e2e r "run_s" "s" run_s;
  Report.e2e r "peak_heap_mb" "MB" (Layers.top_heap_mb ());
  (v, run_s, before, after)

let per_s n run_s = float_of_int n /. run_s

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let ms_quantile q xs = 1e3 *. Stats.quantile q xs

(* Engine and interpreter work: counted on every rep (the passivity
   check compares them), plus wall time per unit of work when traced.
   [deliveries] is [None] where the workload cannot observe them. *)
let report_work r ctx ~run_s ~events ~instrs ~deliveries =
  Report.count r "sim.events" events;
  Report.count r "interp.instrs" instrs;
  if ctx.traced then begin
    Report.layer r "sim.ns_per_event" "ns" (1e9 *. run_s /. float_of_int (max 1 events));
    Report.layer r "interp.ns_per_instr" "ns"
      (1e9 *. run_s /. float_of_int (max 1 instrs));
    match deliveries with
    | None -> ()
    | Some d ->
      Report.count r "bus.deliveries" d;
      Report.layer r ~det:true "sim.events_per_delivery" "ratio" (ratio events d);
      Report.layer r ~det:true "interp.instrs_per_delivery" "ratio" (ratio instrs d);
      Report.layer r "bus.ns_per_delivery" "ns" (1e9 *. run_s /. float_of_int (max 1 d))
  end

let report_spans r =
  Report.layer r "core.load_s" "s" (Stats.median (Tracer.durations "setup.load"));
  Report.layer r "bus.deploy_s" "s" (Stats.median (Tracer.durations "setup.deploy"));
  let chunks = Tracer.durations "bus.run" in
  Report.layer r "bus.run_chunk_ms_p50" "ms" (ms_quantile 0.5 chunks);
  Report.layer r "bus.run_chunk_ms_p99" "ms" (ms_quantile 0.99 chunks)

let failed_frac r ~attempted ~failed =
  Report.ops r ~attempted ~failed;
  Report.e2e r ~det:true "failed_frac" "ratio" (ratio failed attempted)

(* ------------------------------------------------------------------ *)
(* ring-steady                                                         *)
(* ------------------------------------------------------------------ *)

let ring_steady ctx r =
  let n = if ctx.smoke then 200 else 10_000 in
  let horizon = if ctx.smoke then 200.0 else 1500.0 in
  let chunk = 100.0 in
  let tokens = max 1 (n / 10) in
  let stride = n / tokens in
  let offset = Prng.int (Prng.create ~seed:ctx.seed) stride in
  let mil = Ring.large_mil ~n in
  let bus =
    setup r ~batches:1 ~batch:1 (fun () ->
        let system =
          Tracer.span "setup.load" (fun () ->
              ok_exn "ring load" (System.load ~mil ~sources:Ring.sources ()))
        in
        let bus =
          Tracer.span "setup.deploy" (fun () ->
              ok_exn "ring start"
                (System.start system ~app:"ring" ~hosts:Ring.hosts
                   ~default_host:"hostA" ()))
        in
        for k = 0 to tokens - 1 do
          Bus.inject bus
            ~dst:(Ring.member_name (offset + (k * stride)), "in")
            (Dr_state.Value.Vint (k * 1_000_000))
        done;
        bus)
  in
  Layers.report_cache r;
  let observed = if ctx.traced then Some (Layers.observe_deliveries bus) else None in
  let engine = Bus.engine bus in
  let (), run_s, gc0, gc1 =
    fixed_work r (fun () ->
        let chunks = int_of_float (horizon /. chunk) in
        for i = 1 to chunks do
          Tracer.span "bus.run" (fun () ->
              Bus.run ~until:(float_of_int i *. chunk) bus);
          if ctx.traced then
            Tracer.counter "work"
              [ ("engine_events", float_of_int (Engine.events_fired engine));
                ("instrs", float_of_int (Layers.instrs bus));
                ( "deliveries",
                  float_of_int
                    (match observed with Some d -> d.Layers.fresh | None -> 0) );
                ("minor_words", (Gc.quick_stat ()).Gc.minor_words) ]
        done)
  in
  let members = Ring.members ~n in
  let passes = List.map (fun m -> Ring.passes bus ~instance:m) members in
  let crashed =
    List.length
      (List.filter
         (fun m ->
           match Bus.process_status bus ~instance:m with
           | Some (Machine.Crashed _) | None -> true
           | Some _ -> false)
         members)
  in
  let lo = List.fold_left min max_int passes and hi = List.fold_left max 0 passes in
  Report.check r "ring: a member crashed" (crashed = 0);
  Report.check r
    (Printf.sprintf "ring: pass counts drift (min %d, max %d)" lo hi)
    (hi - lo <= 2);
  let deliveries = List.fold_left ( + ) 0 passes in
  let instrs = Layers.instrs bus in
  let events = Engine.events_fired engine in
  failed_frac r ~attempted:n ~failed:crashed;
  Report.count r "ring.passes" deliveries;
  Report.e2e r "deliveries_per_s" "1/s" (per_s deliveries run_s);
  Report.e2e r "instrs_per_s" "1/s" (per_s instrs run_s);
  report_work r ctx ~run_s ~events ~instrs
    ~deliveries:(Option.map (fun d -> d.Layers.fresh) observed);
  if ctx.traced then begin
    Option.iter (fun d -> Report.count r "bus.transfers" d.Layers.transfers) observed;
    Layers.report_bus r bus ~registry:None;
    Layers.report_gc r ~before:gc0 ~after:gc1 ~ops:deliveries;
    report_spans r;
    Layers.report_setup_stages r ~mil ~sources:Ring.sources;
    Report.layer r "heap.live_mb_end" "MB" (Layers.live_mb bus)
  end;
  None

(* ------------------------------------------------------------------ *)
(* migrate-deep                                                        *)
(* ------------------------------------------------------------------ *)

let deep_hosts =
  [ { Bus.host_name = "hostA"; arch = Dr_state.Arch.x86_64 };
    { Bus.host_name = "hostB"; arch = Dr_state.Arch.sparc32 };
    { Bus.host_name = "hostC"; arch = Dr_state.Arch.arm32 };
    { Bus.host_name = "hostD"; arch = Dr_state.Arch.x86_64 } ]

let deep_mil =
  {|module deeppay {
  source = "./deeppay.exe";
  define interface out pattern {integer};
  reconfiguration point R;
}

application deep {
  instance w0 = deeppay on "hostA";
}
|}

let int_global m name =
  match Machine.read_global m name with
  | Some (Dr_state.Value.Vint v) -> Some v
  | _ -> None

let migrate_deep ctx r =
  let depth = if ctx.smoke then 8 else 64 in
  let payload = if ctx.smoke then 4 else 16 in
  let migrations = if ctx.smoke then 20 else 600 in
  let prng = Prng.create ~seed:ctx.seed in
  let sources =
    [ ( "deeppay",
        Dr_lang.Pretty.program_to_string
          (Dr_workloads.Synthetic.deeprec_payload ~depth ~payload) ) ]
  in
  let bus, registry, wal =
    setup r ~batches:5 ~batch:10 (fun () ->
        let system =
          Tracer.span "setup.load" (fun () ->
              ok_exn "deep load" (System.load ~mil:deep_mil ~sources ()))
        in
        let bus =
          Tracer.span "setup.deploy" (fun () ->
              ok_exn "deep start"
                (System.start system ~app:"deep" ~hosts:deep_hosts
                   ~default_host:"hostA" ()))
        in
        let probe, wal = Layers.memory_wal () in
        Bus.set_wal bus wal;
        let registry = Metrics.create () in
        Bus.set_metrics bus registry;
        (bus, registry, probe))
  in
  Layers.report_cache r;
  let live_before = if ctx.traced then Layers.live_mb bus else 0.0 in
  let walls = ref [] and ok = ref 0 and failed = ref 0 in
  let restored = ref 0 and rebuilt = ref 0 in
  let (), run_s, gc0, gc1 =
    fixed_work r (fun () ->
        (* let the instance dive to its bottom loop first *)
        Bus.run ~until:5.0 bus;
        let cur = ref "w0" and host = ref "hostA" and ticks = ref min_int in
        let i = ref 1 in
        while !i <= migrations && !failed = 0 do
          let choices = List.filter (( <> ) !host) [ "hostB"; "hostC"; "hostD" ] in
          let dst = List.nth choices (Prng.int prng (List.length choices)) in
          let next = Printf.sprintf "w%d" !i in
          let t0 = Unix.gettimeofday () in
          let outcome =
            Tracer.span "reconfig.script" (fun () ->
                Script.run_sync bus ~watch:!cur (fun ~on_done ->
                    Script.migrate bus ~precopy:true ~instance:!cur
                      ~new_instance:next ~new_host:dst ~on_done ()))
          in
          (match Result.bind outcome (fun inst ->
                     Option.to_result ~none:"clone not live"
                       (Option.map (fun m -> (inst, m)) (Bus.machine bus ~instance:inst)))
           with
          | Error e ->
            incr failed;
            Report.check r ("migrate-deep: migration " ^ next ^ ": " ^ e) false
          | Ok (inst, m) ->
            (* the next migration starts once the clone has restored, so
               each sample covers one whole move *)
            Tracer.span "reconfig.restore_wait" (fun () ->
                Bus.run_while bus ~max_events:1_000_000 (fun () ->
                    Machine.restore_done_at m = None));
            walls := (Unix.gettimeofday () -. t0) :: !walls;
            let t = Option.value ~default:min_int (int_global m "ticks") in
            if Machine.restore_done_at m = None || Machine.stack_depth m <> depth + 2
               || t < !ticks
            then begin
              incr failed;
              Report.check r
                (Printf.sprintf
                   "migrate-deep: %s lost state (restored %b, depth %d, ticks %d < %d)"
                   inst (Machine.restore_done_at m <> None) (Machine.stack_depth m) t
                   !ticks)
                false
            end
            else incr ok;
            restored := !restored + Machine.restores_applied m;
            rebuilt := !rebuilt + Machine.frames_rebuilt m;
            ticks := t;
            cur := inst;
            host := dst);
          incr i
        done)
  in
  let ok = !ok in
  let instrs = Layers.instrs bus in
  let events = Engine.events_fired (Bus.engine bus) in
  failed_frac r ~attempted:migrations ~failed:(migrations - ok);
  Report.e2e r "reconfigs_per_s" "1/s" (per_s ok run_s);
  Report.e2e r "instrs_per_s" "1/s" (per_s instrs run_s);
  Report.e2e r "reconfig_wall_ms_p50" "ms" (ms_quantile 0.5 !walls);
  Report.e2e r "reconfig_wall_ms_p99" "ms" (ms_quantile 0.99 !walls);
  let windows = Layers.report_windows r registry ~kind:"migrate" in
  Report.e2e r ~det:true "disruption_vms_p50" "vms" (Stats.quantile 0.5 windows);
  Report.e2e r ~det:true "disruption_vms_p99" "vms" (Stats.quantile 0.99 windows);
  Report.count r "interp.records_restored" !restored;
  Report.count r "interp.frames_rebuilt" !rebuilt;
  report_work r ctx ~run_s ~events ~instrs ~deliveries:None;
  if ctx.traced then begin
    Layers.report_bus r bus ~registry:(Some registry);
    Layers.report_wal r wal ~reconfigs:ok;
    Layers.report_gc r ~before:gc0 ~after:gc1 ~ops:migrations;
    report_spans r;
    let script = Tracer.durations "reconfig.script" in
    Report.layer r "reconfig.script_ms_p50" "ms" (ms_quantile 0.5 script);
    Report.layer r "reconfig.script_ms_p99" "ms" (ms_quantile 0.99 script);
    Report.layer r "reconfig.restore_wait_ms_p50" "ms"
      (ms_quantile 0.5 (Tracer.durations "reconfig.restore_wait"));
    Layers.report_setup_stages r ~mil:deep_mil ~sources;
    let live_after = Layers.live_mb bus in
    Report.layer r "heap.live_mb_end" "MB" live_after;
    Report.layer r "heap.retained_kb_per_reconfig" "KB"
      (1e3 *. (live_after -. live_before) /. float_of_int (max 1 ok))
  end;
  Some registry

(* ------------------------------------------------------------------ *)
(* rolling-wave                                                        *)
(* ------------------------------------------------------------------ *)

let rolling_wave ctx r =
  let n = if ctx.smoke then 3 else 8 in
  let waves = if ctx.smoke then 2 else 20 in
  let rate = if ctx.smoke then 10.0 else 40.0 in
  let bus, registry, wal, reliable =
    setup r ~batches:5 ~batch:10 (fun () ->
        let system = Tracer.span "setup.load" (fun () -> Kv.Replica.load ~n) in
        let bus = Tracer.span "setup.deploy" (fun () -> Kv.Replica.start ~n system) in
        let probe, wal = Layers.memory_wal () in
        Bus.set_wal bus wal;
        let registry = Metrics.create () in
        Bus.set_metrics bus registry;
        Dr_bus.Faults.install bus ~seed:ctx.seed
          (Dr_bus.Faults.plan ~rules:[ Dr_bus.Faults.rule ~loss:0.05 () ] ());
        let reliable = Dr_bus.Reliable.attach bus in
        Dr_bus.Reliable.enable_all reliable;
        (bus, registry, probe, reliable))
  in
  Layers.report_cache r;
  let group = Kv.Replica.group ~n in
  let roster = Hashtbl.create 8 in
  List.iter (fun (slot, inst) -> Hashtbl.replace roster slot inst) group;
  let traffic = Traffic.start bus ~rate ~seed:ctx.seed ~metrics:registry ~slots:group in
  let observed =
    if ctx.traced then
      Some (Layers.observe_deliveries ~chain:(Traffic.observe traffic) bus)
    else begin
      Bus.set_delivery_observer bus (Some (Traffic.observe traffic));
      None
    end
  in
  let clones = ref [] in
  let on_retarget ~slot ~instance =
    Hashtbl.replace roster slot instance;
    Traffic.retarget traffic ~slot ~instance;
    if ctx.traced then
      Option.iter (fun m -> clones := m :: !clones) (Bus.machine bus ~instance)
  in
  let upgraded = ref 0 and wave_vms = ref [] in
  let (), run_s, gc0, gc1 =
    fixed_work r (fun () ->
        Bus.run ~until:10.0 bus;
        for w = 1 to waves do
          let target = if w mod 2 = 1 then "rstorev2" else "rstore" in
          let default = Rolling.default_config ~target in
          (* under injected loss, retransmission tails are the network,
             not the build: only the latency gate is lifted *)
          let cfg = { default with rc_slo = { default.rc_slo with slo_p99 = None } } in
          let group =
            List.map (fun (slot, _) -> (slot, Hashtbl.find roster slot)) group
          in
          let v0 = Bus.now bus in
          let outcome =
            Tracer.span "rolling.wave" (fun () ->
                Rolling.run bus cfg ~group ~on_retarget ())
          in
          wave_vms := (Bus.now bus -. v0) :: !wave_vms;
          (match outcome with
          | Error e ->
            Report.check r (Printf.sprintf "rolling-wave: wave %d: %s" w e) false
          | Ok rp ->
            Report.check r
              (Printf.sprintf "rolling-wave: wave %d did not commit" w)
              rp.Rolling.rp_committed);
          List.iter
            (fun (slot, _) ->
              let inst = Hashtbl.find roster slot in
              if Bus.instance_module bus ~instance:inst = Some target then incr upgraded
              else
                Report.check r
                  (Printf.sprintf "rolling-wave: wave %d left %s off %s" w slot target)
                  false)
            group;
          Traffic.discard_replies traffic;
          if ctx.traced then
            Tracer.counter "work"
              [ ("engine_events", float_of_int (Engine.events_fired (Bus.engine bus)));
                ("answered", float_of_int traffic.Traffic.answered);
                ("minor_words", (Gc.quick_stat ()).Gc.minor_words) ]
        done;
        Traffic.stop traffic;
        (* close the ledger: lossy replies may need several
           retransmission rounds, so drive until nothing is in flight *)
        let deadline = Bus.now bus +. 200.0 in
        while Traffic.inflight traffic > 0 && Bus.now bus < deadline do
          Tracer.span "bus.run" (fun () -> Bus.run ~until:(Bus.now bus +. 10.0) bus)
        done;
        Traffic.discard_replies traffic)
  in
  let t = traffic in
  let slots = n * waves in
  Report.check r
    (Printf.sprintf "rolling-wave: ledger sent %d <> answered %d + shed %d" t.Traffic.sent
       t.answered t.shed)
    (t.sent = t.answered + t.shed && Traffic.inflight t = 0);
  Report.check r
    (Printf.sprintf "rolling-wave: %d wrong, %d duplicated, %d stray replies" t.wrong
       t.duplicated t.stray)
    (t.wrong = 0 && t.duplicated = 0 && t.stray = 0);
  failed_frac r ~attempted:(t.sent + slots)
    ~failed:(t.shed + t.wrong + Traffic.inflight t + (slots - !upgraded));
  let instrs = Layers.instrs bus in
  let events = Engine.events_fired (Bus.engine bus) in
  Report.e2e r "requests_per_s" "1/s" (per_s t.answered run_s);
  Report.e2e r "instrs_per_s" "1/s" (per_s instrs run_s);
  Report.e2e r "reconfigs_per_s" "1/s" (per_s !upgraded run_s);
  let windows = Layers.report_windows r registry ~kind:"rolling" in
  Report.e2e r ~det:true "disruption_vms_p50" "vms" (Stats.quantile 0.5 windows);
  Report.e2e r ~det:true "disruption_vms_p99" "vms" (Stats.quantile 0.99 windows);
  let latency q = Stats.Samples.quantile t.latencies q in
  Report.e2e r ~det:true "req_latency_vt_p50" "vms" (latency 0.5);
  Report.e2e r ~det:true "req_latency_vt_p99" "vms" (latency 0.99);
  Report.count r "traffic.sent" t.sent;
  Report.count r "traffic.answered" t.answered;
  Report.count r "traffic.shed" t.shed;
  Report.count r "traffic.wrong" t.wrong;
  Report.count r "traffic.duplicated" t.duplicated;
  Report.count r "rolling.upgrades" (Layers.counter_sum registry "rolling.upgrades");
  Report.count r "rolling.rollbacks" (Layers.counter_sum registry "rolling.rollbacks");
  Report.layer r ~det:true "rolling.wave_vms_p50" "vms" (Stats.median !wave_vms);
  Report.count r "faults.injected" (Layers.counter_sum registry "faults.injected");
  Report.count r "reliable.retx_total" (Dr_bus.Reliable.total_retx reliable);
  Report.layer r ~det:true "reliable.retx_wait_vms" "vms"
    (List.fold_left
       (fun acc s -> acc +. s.Dr_bus.Reliable.st_retx_wait)
       0.0
       (Dr_bus.Reliable.stats reliable));
  Report.layer r ~det:true "drain.retransmit_vms" "vms"
    (Metrics.histogram_sum registry "drain.retransmit");
  report_work r ctx ~run_s ~events ~instrs
    ~deliveries:(Option.map (fun d -> d.Layers.fresh) observed);
  if ctx.traced then begin
    Option.iter (fun d -> Report.count r "bus.transfers" d.Layers.transfers) observed;
    Report.count r "interp.records_restored"
      (List.fold_left (fun acc m -> acc + Machine.restores_applied m) 0 !clones);
    Report.count r "interp.frames_rebuilt"
      (List.fold_left (fun acc m -> acc + Machine.frames_rebuilt m) 0 !clones);
    Layers.report_bus r bus ~registry:(Some registry);
    Layers.report_wal r wal ~reconfigs:!upgraded;
    Layers.report_gc r ~before:gc0 ~after:gc1 ~ops:t.sent;
    report_spans r;
    Report.layer r "rolling.wave_ms_p50" "ms"
      (ms_quantile 0.5 (Tracer.durations "rolling.wave"));
    Layers.report_setup_stages r ~mil:(Kv.Replica.mil ~n) ~sources:Kv.Replica.sources;
    Report.layer r "heap.live_mb_end" "MB" (Layers.live_mb bus)
  end;
  Some registry

(* ------------------------------------------------------------------ *)
(* mc-explore                                                          *)
(* ------------------------------------------------------------------ *)

let mc_names ctx =
  if ctx.smoke then [ "single-replace"; "detector-restart" ] else Configs.names

let mc_explore ctx r =
  let configs =
    setup r ~batches:5 ~batch:4 (fun () ->
        List.map
          (fun name ->
            let cfg =
              match Configs.by_name name with
              | Some c -> c
              | None -> failwith ("mc-explore: unknown configuration " ^ name)
            in
            (* boot one execution's simulation: what every explored
               execution pays before its first transition *)
            Tracer.span "setup.load" (fun () -> ignore (cfg.Explorer.c_setup ()));
            (name, cfg))
          (mc_names ctx))
  in
  Layers.report_cache r;
  let events = ref 0 and instrs = ref 0 in
  let on_exec (x : Explorer.exec_report) =
    let bus = x.Explorer.ex_run.Explorer.r_bus in
    events := !events + Engine.events_fired (Bus.engine bus);
    instrs := !instrs + Layers.instrs bus
  in
  let results, run_s, gc0, gc1 =
    fixed_work r (fun () ->
        List.map
          (fun (name, cfg) ->
            let res, dt =
              timed (fun () ->
                  Tracer.span "mc.explore" (fun () ->
                      Explorer.explore ~mode:Explorer.Dpor ~on_exec cfg))
            in
            (name, res, dt))
          configs)
  in
  let sum f =
    List.fold_left (fun acc (_, res, _) -> acc + f res.Explorer.res_stats) 0 results
  in
  let executions = sum (fun s -> s.Explorer.executions) in
  let transitions = sum (fun s -> s.Explorer.transitions) in
  let bad = ref 0 in
  List.iter
    (fun (name, res, dt) ->
      let s = res.Explorer.res_stats in
      let violations = List.length res.Explorer.res_violations in
      let exhaustive =
        (not s.Explorer.capped) && s.Explorer.depth_cuts = 0 && s.Explorer.frontier = 0
      in
      bad := !bad + violations + if exhaustive then 0 else 1;
      Report.check r (Printf.sprintf "mc-explore: %s: %d violation(s)" name violations)
        (violations = 0);
      Report.check r
        (Printf.sprintf
           "mc-explore: %s not exhaustive (capped %b, depth cuts %d, frontier %d)"
           name s.Explorer.capped s.Explorer.depth_cuts s.Explorer.frontier)
        exhaustive;
      Report.layer r ("mc.explore_s." ^ name) "s" dt)
    results;
  failed_frac r ~attempted:executions ~failed:!bad;
  Report.count r "mc.executions" executions;
  Report.count r "mc.transitions" transitions;
  Report.count r "mc.states" (sum (fun s -> s.Explorer.states));
  Report.count r "mc.dedup_cuts" (sum (fun s -> s.Explorer.dedup_cuts));
  Report.layer r "mc.us_per_transition" "us"
    (1e6 *. run_s /. float_of_int (max 1 transitions));
  report_work r ctx ~run_s ~events:!events ~instrs:!instrs ~deliveries:None;
  if ctx.traced then begin
    Layers.report_gc r ~before:gc0 ~after:gc1 ~ops:transitions;
    report_spans r;
    Report.layer r "heap.live_mb_end" "MB" (Layers.live_mb configs)
  end;
  None

let all =
  [ { name = "ring-steady";
      why =
        "10k-member token ring run to a 1500-vms horizon: bus routing, engine and \
         interpreter do the work; no reconfiguration, state or WAL";
      run = ring_steady };
    { name = "migrate-deep";
      why =
        "600 migrations of a depth-64 stack over three architectures, WAL on; only the \
         first move pre-copies (clones give no base), so full-image capture, translate, \
         restore and journal dominate";
      run = migrate_deep };
    { name = "rolling-wave";
      why =
        "20 rolling waves over 8 replicas under lossy open-loop Poisson traffic: drain, \
         reliable transport, canary judgement";
      run = rolling_wave };
    { name = "mc-explore";
      why =
        "exhaustive DPOR over the six model-checking configurations: many tiny \
         simulations, dominated by set-up, replay and fingerprinting";
      run = mc_explore } ]

let find name = List.find_opt (fun w -> w.name = name) all
