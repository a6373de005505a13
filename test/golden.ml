(* Reference scenarios whose full trace output is pinned byte-for-byte
   against golden files recorded from the seed (list-based) bus. The
   indexed, batched bus must reproduce them exactly at every shard
   count: same events, same order, same virtual times. Regenerate with:
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
let monitor_trace ?(metrics = false) ?shards () =
  let system = Dr_workloads.Monitor.load () in
  let bus =
    match
      Dynrecon.System.start system ~app:"monitor"
        ~hosts:Dr_workloads.Monitor.hosts ?shards ~default_host:"hostA" ()
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

(* The evolving token ring: run, splice a member in, keep running.
   [~shards] picks the broker-domain count (default 1). Shard count only
   partitions the fleet, so every count must reproduce the same golden. *)
let ring_trace ?(metrics = false) ?shards () =
  let system = Dr_workloads.Ring.load () in
  let bus = Dr_workloads.Ring.start ?shards system in
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
let chaos_trace ?(metrics = false) ?shards () =
  let system = Dr_workloads.Ring.load () in
  let plan =
    Dr_workloads.Ring.chaos_plan ~loss:0.05 ~host_crash:("hostB", 8.5)
      ~host_recover:20.0 ()
  in
  let bus = Dr_workloads.Ring.start_chaos ~seed:7 ~plan ?shards system in
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
