(* Reference scenarios whose full trace output is pinned byte-for-byte
   against golden files: the monitor, ring and chaos ones recorded from
   the seed (list-based) bus, the rolling one from the trace that
   formatted every line at record time. The indexed, batched bus and
   the typed trace must reproduce them exactly: same events, same
   order, same virtual times. Regenerate with:
     dune exec test/gen_goldens.exe -- test   (from the repo root) *)

module Bus = Dr_bus.Bus

let dump bus = Fmt.str "%a" Dr_sim.Trace.dump (Bus.trace bus)

(* [~metrics:true] attaches a metrics registry before the scenario runs.
   The registry is passive by design, so every golden below must come
   out byte-identical either way — that's the non-perturbation test. *)
let observe metrics bus =
  if metrics then Bus.set_metrics bus (Dr_obs.Metrics.create ())

(* The paper's monitor application: run, migrate compute to the
   big-endian host mid-execution, keep running. *)
let monitor_trace ?(metrics = false) () =
  let system = Dr_workloads.Monitor.load () in
  let bus =
    match
      Dynrecon.System.start system ~app:"monitor"
        ~hosts:Dr_workloads.Monitor.hosts ~default_host:"hostA" ()
    with
    | Ok bus -> bus
    | Error e -> failwith ("golden monitor: start: " ^ e)
  in
  observe metrics bus;
  Bus.run ~until:12.0 bus;
  (match
     Dynrecon.System.migrate bus ~instance:"compute" ~new_instance:"c2"
       ~new_host:"hostB"
   with
  | Ok _ -> ()
  | Error e -> failwith ("golden monitor: migrate: " ^ e));
  Bus.run ~until:40.0 bus;
  dump bus

(* The evolving token ring: run, splice a member in, keep running. *)
let ring_trace ?(metrics = false) () =
  let system = Dr_workloads.Ring.load () in
  let bus = Dr_workloads.Ring.start system in
  observe metrics bus;
  Bus.run ~until:30.0 bus;
  (match
     Dr_workloads.Ring.insert_member bus ~instance:"d" ~host:"hostC" ~after:"c"
       ~before:"a"
   with
  | Ok () -> ()
  | Error e -> failwith ("golden ring: insert: " ^ e));
  Bus.run ~until:60.0 bus;
  dump bus

(* A seeded chaos run: 5% message loss plus a host crash in the middle
   of a transactional replacement's signal->divulge window. Pins the
   fault plane's PRNG consumption order and the journal's rollback
   records byte-for-byte. *)
let chaos_trace ?(metrics = false) () =
  let system = Dr_workloads.Ring.load () in
  let plan =
    Dr_workloads.Ring.chaos_plan ~loss:0.05 ~host_crash:("hostB", 8.5)
      ~host_recover:20.0 ()
  in
  let bus = Dr_workloads.Ring.start_chaos ~seed:7 ~plan system in
  observe metrics bus;
  Bus.run ~until:8.0 bus;
  (match
     Dr_reconfig.Script.run_sync bus (fun ~on_done ->
         Dr_reconfig.Script.replace bus ~instance:"c" ~new_instance:"c2"
           ~deadline:25.0 ~on_done ())
   with
  | Ok _ | Error _ -> ());
  Bus.run ~until:40.0 bus;
  dump bus

(* A seeded rolling wave over a 3-replica kvstore group under 5% loss
   on every route, masked by the reliable layer: the hot trace
   categories of a wave under lossy traffic (retransmissions, duplicate
   suppression, injected loss, drain redirects, canary judgement) in one
   pinned file. The load generator addresses only admitting members, so
   a stale client that keeps writing to whichever member serves a slot
   supplies the drain redirects. *)
let rolling_trace ?(metrics = false) () =
  let module Kv = Dr_workloads.Kvstore in
  let n = 3 in
  let bus = Kv.Replica.start ~n (Kv.Replica.load ~n) in
  observe metrics bus;
  Dr_bus.Faults.install bus ~seed:5
    (Dr_bus.Faults.plan ~rules:[ Dr_bus.Faults.rule ~loss:0.05 () ] ());
  Dr_bus.Reliable.enable_all (Dr_bus.Reliable.attach bus);
  let group = Kv.Replica.group ~n in
  let serving = Hashtbl.create n in
  List.iter
    (fun (slot, instance) -> Hashtbl.replace serving slot instance)
    group;
  let lg =
    Kv.Loadgen.start bus
      { Kv.Loadgen.default_conf with
        lc_rate = 6.0;
        lc_seed = 7;
        lc_duration = 40.0 }
      ~slots:group
  in
  let rec stale_client () =
    if Bus.now bus < 40.0 then begin
      Hashtbl.iter
        (fun _ instance ->
          if Bus.is_draining bus ~instance then
            Bus.inject bus ~dst:(instance, "req")
              (Dr_state.Value.Vint
                 (Kv.Replica.encode_request ~id:0 ~op:0 ~key:1)))
        serving;
      Dr_sim.Engine.schedule (Bus.engine bus) ~delay:0.5 stale_client
    end
  in
  stale_client ();
  Bus.run ~until:4.0 bus;
  let default = Dr_reconfig.Rolling.default_config ~target:"rstorev2" in
  let cfg =
    { default with
      rc_drain_timeout = 3.0;
      rc_canary_window = 4.0;
      rc_backoff = 1.0;
      rc_slo = { default.rc_slo with slo_p99 = None } }
  in
  (match
     Dr_reconfig.Rolling.run bus cfg ~group
       ~on_retarget:(fun ~slot ~instance ->
         Hashtbl.replace serving slot instance;
         Kv.Loadgen.retarget lg ~slot ~instance)
       ()
   with
  | Ok _ | Error _ -> ());
  Kv.Loadgen.stop lg;
  Bus.run ~until:(Bus.now bus +. 10.0) bus;
  dump bus
