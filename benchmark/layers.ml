(* Reading the layers from outside: a counting wrapper around the WAL's
   storage, GC deltas, the metrics registry's counters and span trees,
   and a traced re-timing of each set-up stage on the same inputs. *)

module Bus = Dr_bus.Bus
module Metrics = Dr_obs.Metrics
module Storage = Dr_wal.Storage

(* {1 WAL storage} *)

type wal_probe = {
  mutable appends : int;
  mutable append_bytes : int;
  mutable syncs : int;
  mutable writes : int;
  mutable deletes : int;
}

(* Wrap the storage handed to [Wal.create]: every callback is counted,
   and timed as a [wal.*] span when tracing is on. *)
let probe_storage (st : Storage.t) =
  let p = { appends = 0; append_bytes = 0; syncs = 0; writes = 0; deletes = 0 } in
  let storage =
    { st with
      Storage.st_append =
        (fun name b ->
          p.appends <- p.appends + 1;
          p.append_bytes <- p.append_bytes + Bytes.length b;
          Tracer.span "wal.append" (fun () -> st.Storage.st_append name b));
      st_sync =
        (fun () ->
          p.syncs <- p.syncs + 1;
          Tracer.span "wal.sync" st.Storage.st_sync);
      st_write =
        (fun name b ->
          p.writes <- p.writes + 1;
          Tracer.span "wal.write" (fun () -> st.Storage.st_write name b));
      st_delete =
        (fun name ->
          p.deletes <- p.deletes + 1;
          Tracer.span "wal.delete" (fun () -> st.Storage.st_delete name)) }
  in
  (p, storage)

let memory_wal () =
  let probe, storage = probe_storage (Storage.storage_of_mem (Storage.memory ())) in
  match Dr_wal.Wal.create storage with
  | Ok wal -> (probe, wal)
  | Error e -> failwith ("benchmark: wal create: " ^ e)

let sum_s name = List.fold_left ( +. ) 0.0 (Tracer.durations name)

let report_wal r p ~reconfigs =
  Report.count r "wal.appends" p.appends;
  Report.count r "wal.append_bytes" p.append_bytes;
  Report.count r "wal.syncs" p.syncs;
  Report.count r "wal.blob_writes" p.writes;
  Report.count r "wal.deletes" p.deletes;
  Report.layer r "wal.append_s" "s" (sum_s "wal.append");
  Report.layer r "wal.sync_s" "s" (sum_s "wal.sync");
  Report.layer r "wal.write_s" "s" (sum_s "wal.write");
  Report.layer r ~det:true "wal.bytes_per_reconfig" "bytes"
    (if reconfigs = 0 then 0.0
     else float_of_int p.append_bytes /. float_of_int reconfigs)

(* {1 GC} *)

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6
let top_heap_mb () = mb (Gc.quick_stat ()).Gc.top_heap_words

(* Live heap after a full collection, with [keep] (the workload's bus)
   still reachable. *)
let live_mb keep =
  Gc.full_major ();
  let words = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity keep);
  mb words

(* Allocation over the fixed-work phase, per operation. *)
let report_gc r ~(before : Gc.stat) ~(after : Gc.stat) ~ops =
  let per x = if ops = 0 then 0.0 else x /. float_of_int ops in
  Report.layer r "gc.minor_words_per_op" "words"
    (per (after.Gc.minor_words -. before.Gc.minor_words));
  Report.layer r "gc.promoted_words_per_op" "words"
    (per (after.Gc.promoted_words -. before.Gc.promoted_words));
  Report.layer r "gc.major_collections" "count"
    (float_of_int (after.Gc.major_collections - before.Gc.major_collections))

(* {1 Metrics registry} *)

let counter_sum registry name =
  List.fold_left
    (fun acc (n, _, v) -> if n = name then acc + v else acc)
    0 (Metrics.counters registry)

(* Completed reconfiguration windows: root spans of [kind] that closed
   with outcome ok. *)
let windows registry ~kind =
  List.filter
    (fun s ->
      Metrics.span_kind s = kind
      && List.assoc_opt "outcome" (Metrics.span_attrs s) = Some "ok"
      && Metrics.span_end s <> None)
    (Metrics.roots registry)

let dur s = Option.value ~default:0.0 (Metrics.span_duration s)

let child s kind =
  List.find_opt (fun c -> Metrics.span_kind c = kind) (Metrics.span_children s)

let attr s name = List.assoc_opt name (Metrics.span_attrs s)

let child_attr windows kind name =
  List.filter_map
    (fun s ->
      match child s kind with
      | Some c -> Option.bind (attr c name) float_of_string_opt
      | None -> None)
    windows

(* Every virtual-time span of the registry as (name, start, end), for
   the trace file's virtual-time track. *)
let virtual_spans registry =
  let rec walk acc s =
    let acc =
      match Metrics.span_end s with
      | Some e -> (Metrics.span_kind s, Metrics.span_start s, e) :: acc
      | None -> acc
    in
    List.fold_left walk acc (Metrics.span_children s)
  in
  List.rev (List.fold_left walk [] (Metrics.roots registry))

(* The per-phase breakdown of reconfiguration windows ([kind] roots),
   in virtual time, plus the state layer's span attributes. *)
let report_windows r registry ~kind =
  let ws = windows registry ~kind in
  let p50 xs = Stats.median xs in
  let phase name =
    Report.layer r ~det:true
      (Printf.sprintf "reconfig.%s_vms_p50" name)
      "vms"
      (p50 (List.filter_map (fun s -> Option.map dur (child s name)) ws))
  in
  List.iter phase [ "signal"; "drain"; "capture"; "translate"; "restore" ];
  Report.layer r ~det:true "reconfig.precopy_wait_vms_p50" "vms"
    (p50 (child_attr ws "precopy" "wait"));
  Report.layer r ~det:true "state.bytes_in_p50" "bytes"
    (p50 (child_attr ws "translate" "bytes_in"));
  Report.layer r ~det:true "state.bytes_out_p50" "bytes"
    (p50 (child_attr ws "translate" "bytes_out"));
  Report.layer r ~det:true "state.delta_bytes_p50" "bytes"
    (p50 (child_attr ws "delta" "delta_bytes"));
  Report.layer r ~det:true "state.delta_slots_p50" "count"
    (p50 (child_attr ws "delta" "delta_slots"));
  List.iter
    (fun reason ->
      Report.count r ("state.fallback." ^ reason)
        (List.length
           (List.filter
              (fun s ->
                match child s "delta" with
                | Some c -> attr c "fallback" = Some reason
                | None -> false)
              ws)))
    [ "none"; "cross_arch"; "misaligned"; "disabled" ];
  List.map dur ws

(* {1 Set-up stages} *)

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let proc_containing_label (p : Dr_lang.Ast.program) label =
  List.find_opt
    (fun (pr : Dr_lang.Ast.proc) ->
      List.mem label (Dr_lang.Ast.labels_in_block pr.Dr_lang.Ast.body))
    p.Dr_lang.Ast.procs

(* Re-run each stage of [System.load] + program registration on the
   same inputs, one stage at a time, and report the time each took. The
   stages' own results are discarded: this only attributes set-up time. *)
let report_setup_stages r ~mil ~sources =
  let config, mil_s = time (fun () -> Dr_mil.Mil_parser.parse_config mil) in
  let modules =
    List.filter_map
      (fun (spec : Dr_mil.Spec.module_spec) ->
        Option.map (fun src -> (spec, src)) (List.assoc_opt spec.ms_name sources))
      config.Dr_mil.Spec.modules
  in
  let parse_s = ref 0.0 and check_s = ref 0.0 and prep_s = ref 0.0 in
  let lower_s = ref 0.0 in
  List.iter
    (fun ((spec : Dr_mil.Spec.module_spec), src) ->
      let program, dt = time (fun () -> Dr_lang.Parser.parse_program src) in
      parse_s := !parse_s +. dt;
      let _, dt = time (fun () -> Dr_lang.Typecheck.check program) in
      check_s := !check_s +. dt;
      let points =
        List.filter_map
          (fun (pt : Dr_mil.Spec.point_decl) ->
            Option.map
              (fun (pr : Dr_lang.Ast.proc) ->
                { Dr_transform.Instrument.pt_proc = pr.Dr_lang.Ast.proc_name;
                  pt_label = pt.rp_label;
                  pt_vars = pt.rp_state })
              (proc_containing_label program pt.rp_label))
          spec.points
      in
      let deployed =
        if points = [] then program
        else
          let prepared, dt =
            time (fun () -> Dr_transform.Instrument.prepare program ~points)
          in
          prep_s := !prep_s +. dt;
          match prepared with
          | Ok p -> p.Dr_transform.Instrument.prepared_program
          | Error _ -> program
      in
      let _, dt =
        time (fun () ->
            Dr_interp.Resolve.resolve_program deployed
              (Dr_interp.Lower.lower_program deployed))
      in
      lower_s := !lower_s +. dt)
    modules;
  Report.layer r "mil.parse_s" "s" mil_s;
  Report.layer r "lang.parse_s" "s" !parse_s;
  Report.layer r "lang.typecheck_s" "s" !check_s;
  Report.layer r "transform.prepare_s" "s" !prep_s;
  Report.layer r "interp.lower_s" "s" !lower_s

let report_cache r =
  Report.count r "interp.cache_hits" (Dr_interp.Cache.hits ());
  Report.count r "interp.cache_misses" (Dr_interp.Cache.misses ())

(* {1 Bus} *)

(* Deliveries into input queues, counted through the bus's delivery
   observer; [chain] receives every enqueue too. *)
type deliveries = { mutable fresh : int; mutable transfers : int }

let observe_deliveries ?(chain = fun ~dst:_ ~kind:_ _ -> ()) bus =
  let d = { fresh = 0; transfers = 0 } in
  Bus.set_delivery_observer bus
    (Some
       (fun ~dst ~kind v ->
         (match kind with
         | Bus.Fresh -> d.fresh <- d.fresh + 1
         | Bus.Transfer -> d.transfers <- d.transfers + 1);
         chain ~dst ~kind v));
  d

let instrs bus =
  List.fold_left (fun acc e -> acc + e.Bus.r_instrs) 0 (Bus.roster bus)

let report_bus r bus ~registry =
  let batches, batched =
    List.fold_left
      (fun (b, m) d -> (b + d.Bus.d_batches, m + d.Bus.d_batched))
      (0, 0) (Bus.domain_stats bus)
  in
  Report.count r "bus.batches" batches;
  Report.count r "bus.batched" batched;
  Report.count r "bus.live_instances" (List.length (Bus.instances bus));
  Report.count r "bus.dropped"
    (match registry with Some m -> counter_sum m "bus.dropped" | None -> 0);
  Report.count r "state.quarantined" (List.length (Bus.quarantined bus));
  Report.count r "reconfig.signals"
    (match registry with Some m -> counter_sum m "reconfig.signals" | None -> 0)
