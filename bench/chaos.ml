(* Chaos suite: reconfiguration under injected faults.

   Part 1 (transactional) deploys the token ring, installs a seeded
   fault plan (uniform message loss, optionally a host crash in the
   middle of the replacement window), lets the ring run, then performs
   a transactional [replace] of member [c] with a deadline and one
   retry. A trial is {e consistent} when either the replacement
   completed (the clone is live and every route endpoint resolves to an
   instance) or it rolled back and the route set and instance roster
   equal the pre-script snapshot.

   Part 2 (reliable sweep) repeats the replacement with the reliable
   delivery layer enabled on every route, sweeping the loss rate from
   0 to 20% across six fault scenarios. Here the bar is higher:
   every trial must complete AND the tap's token history must be
   exactly-once — no token lost, none duplicated — despite the loss,
   duplication and jitter underneath.

   Both parts are summarised in BENCH_chaos.json.
   Run with: dune exec bench/main.exe -- chaos *)

module Bus = Dr_bus.Bus
module Faults = Dr_bus.Faults
module Reliable = Dr_bus.Reliable
module Script = Dr_reconfig.Script
module Ring = Dr_workloads.Ring

type scenario = {
  sc_name : string;
  sc_loss : float;
  sc_host_crash : (string * float) option;
  sc_recover : float option;
}

type tally = {
  mutable ok : int;  (* replacement completed *)
  mutable rolled_back : int;  (* failed but restored the old config *)
  mutable inconsistent : int;  (* failed AND left the config damaged *)
  mutable latency_sum : float;  (* virtual time, completed trials only *)
}

let snapshot bus =
  let routes =
    List.sort compare
      (List.map
         (fun ((src, dst) : Bus.endpoint * Bus.endpoint) ->
           (fst src, snd src, fst dst, snd dst))
         (Bus.all_routes bus))
  in
  let roster = List.sort String.compare (Bus.instances bus) in
  (routes, roster)

let fully_routed bus =
  let live = Bus.instances bus in
  List.for_all
    (fun ((src, dst) : Bus.endpoint * Bus.endpoint) ->
      List.mem (fst src) live && List.mem (fst dst) live)
    (Bus.all_routes bus)

let run_trial scenario ~seed =
  let system = Ring.load () in
  let plan =
    Ring.chaos_plan ~loss:scenario.sc_loss ?host_crash:scenario.sc_host_crash
      ?host_recover:scenario.sc_recover ()
  in
  let bus = Ring.start_chaos ~seed ~plan system in
  Bus.run ~until:8.0 bus;
  let before = snapshot bus in
  let started = Bus.now bus in
  let outcome =
    Script.run_sync bus (fun ~on_done ->
        Script.replace bus ~instance:"c" ~new_instance:"c2" ~deadline:25.0
          ~retry:{ Script.attempts = 2; backoff = 5.0; alt_hosts = [ "hostA" ] }
          ~on_done ())
  in
  let latency = Bus.now bus -. started in
  match outcome with
  | Ok _ -> (`Ok latency, bus)
  | Error _ ->
    if snapshot bus = before then (`Rolled_back, bus)
    else (`Inconsistent, bus)

let run_scenario ?(trials = 40) scenario =
  let t = { ok = 0; rolled_back = 0; inconsistent = 0; latency_sum = 0.0 } in
  for seed = 1 to trials do
    let verdict, bus = run_trial scenario ~seed in
    (match verdict with
    | `Ok latency ->
      t.ok <- t.ok + 1;
      t.latency_sum <- t.latency_sum +. latency
    | `Rolled_back -> t.rolled_back <- t.rolled_back + 1
    | `Inconsistent -> t.inconsistent <- t.inconsistent + 1);
    (* a completed replacement must also leave the graph fully routed *)
    if not (fully_routed bus) then begin
      t.inconsistent <- t.inconsistent + 1;
      Printf.printf "  !! seed %d left a dangling route\n" seed
    end
  done;
  t

let scenarios =
  [ { sc_name = "fault-free"; sc_loss = 0.0; sc_host_crash = None;
      sc_recover = None };
    { sc_name = "loss 2%"; sc_loss = 0.02; sc_host_crash = None;
      sc_recover = None };
    { sc_name = "loss 5%"; sc_loss = 0.05; sc_host_crash = None;
      sc_recover = None };
    { sc_name = "loss 10%"; sc_loss = 0.10; sc_host_crash = None;
      sc_recover = None };
    { sc_name = "loss 5% + hostB crash"; sc_loss = 0.05;
      sc_host_crash = Some ("hostB", 8.5); sc_recover = None };
    { sc_name = "loss 5% + crash/recover"; sc_loss = 0.05;
      sc_host_crash = Some ("hostB", 8.5); sc_recover = Some 12.0 } ]

(* ---------------------------------------------- reliable-delivery sweep *)

type sweep_scenario = {
  sw_name : string;
  sw_dup : float;
  sw_jitter : float;
  sw_hot_route : bool;  (* extra loss on the b -> c route, 2x the rate *)
  sw_double : bool;  (* replace c -> c2, then b -> b2 *)
}

let sweep_scenarios =
  [ { sw_name = "uniform loss"; sw_dup = 0.0; sw_jitter = 0.0;
      sw_hot_route = false; sw_double = false };
    { sw_name = "loss + dup 10%"; sw_dup = 0.10; sw_jitter = 0.0;
      sw_hot_route = false; sw_double = false };
    { sw_name = "loss + jitter 0.5"; sw_dup = 0.0; sw_jitter = 0.5;
      sw_hot_route = false; sw_double = false };
    { sw_name = "loss + dup + jitter"; sw_dup = 0.10; sw_jitter = 0.5;
      sw_hot_route = false; sw_double = false };
    { sw_name = "hot route b>c 2x"; sw_dup = 0.0; sw_jitter = 0.0;
      sw_hot_route = true; sw_double = false };
    { sw_name = "double replace"; sw_dup = 0.05; sw_jitter = 0.0;
      sw_hot_route = false; sw_double = true } ]

let sweep_losses = [ 0.0; 0.05; 0.10; 0.15; 0.20 ]

let sweep_plan scenario ~loss =
  let rules =
    (if scenario.sw_hot_route then
       [ Faults.rule ~src:"b" ~dst:"c" ~loss:(Float.min 1.0 (2.0 *. loss))
           ~dup:scenario.sw_dup () ]
     else [])
    @ [ Faults.rule ~loss ~dup:scenario.sw_dup () ]
  in
  Faults.plan ~rules ~jitter:scenario.sw_jitter ()

let sweep_retry = { Script.attempts = 3; backoff = 5.0; alt_hosts = [] }

let replace_sync bus ~instance ~new_instance =
  Script.run_sync bus ~deadline:150.0 (fun ~on_done ->
      Script.replace bus ~instance ~new_instance ~deadline:60.0
        ~retry:sweep_retry ~on_done ())

(* One sweep trial: ring + reliable layer + seeded faults, replace
   member(s) mid-run, then drain under a fault-free network so every
   retransmission lands, and check the tap saw each token exactly once. *)
let run_sweep_trial scenario ~loss ~seed =
  let system = Ring.load () in
  let bus = Ring.start system in
  let r = Reliable.attach bus in
  Reliable.enable_all r;
  Faults.install bus ~seed (sweep_plan scenario ~loss);
  Bus.run ~until:8.0 bus;
  let started = Bus.now bus in
  let outcome = replace_sync bus ~instance:"c" ~new_instance:"c2" in
  let outcome =
    if scenario.sw_double && Result.is_ok outcome then
      replace_sync bus ~instance:"b" ~new_instance:"b2"
    else outcome
  in
  let latency = Bus.now bus -. started in
  Faults.install bus ~seed Faults.no_faults;
  Bus.run ~until:(Bus.now bus +. 40.0) bus;
  let history = Ring.tap_history bus in
  let exactly_once =
    Ring.history_exactly_once history && List.length history > 0
  in
  (Result.is_ok outcome, exactly_once, latency, Reliable.total_retx r)

type sweep_row = {
  row_scenario : string;
  row_loss : float;
  row_trials : int;
  row_completed : int;
  row_exactly_once : int;
  row_latency_sum : float;
  row_retx : int;
}

let run_sweep_cell scenario ~loss ~seeds =
  let completed = ref 0 and exactly = ref 0 in
  let latency_sum = ref 0.0 and retx = ref 0 in
  List.iter
    (fun seed ->
      let ok, eo, latency, rtx = run_sweep_trial scenario ~loss ~seed in
      if ok then begin
        incr completed;
        latency_sum := !latency_sum +. latency
      end;
      if eo then incr exactly;
      retx := !retx + rtx)
    seeds;
  { row_scenario = scenario.sw_name;
    row_loss = loss;
    row_trials = List.length seeds;
    row_completed = !completed;
    row_exactly_once = !exactly;
    row_latency_sum = !latency_sum;
    row_retx = !retx }

(* ----------------------------------------------------------------- main *)

let json_of_tally ~trials scenario (t : tally) =
  Json_out.(
    obj
      [ ("scenario", str scenario.sc_name);
        ("loss", float scenario.sc_loss);
        ("trials", int trials);
        ("ok", int t.ok);
        ("rolled_back", int t.rolled_back);
        ("inconsistent", int t.inconsistent);
        ( "consistent_rate",
          float (float_of_int (t.ok + t.rolled_back) /. float_of_int trials) );
        ( "mean_latency",
          if t.ok = 0 then "null"
          else float (t.latency_sum /. float_of_int t.ok) ) ])

let json_of_sweep_row row =
  Json_out.(
    obj
      [ ("scenario", str row.row_scenario);
        ("loss", float row.row_loss);
        ("trials", int row.row_trials);
        ("completed", int row.row_completed);
        ("exactly_once", int row.row_exactly_once);
        ( "mean_latency",
          if row.row_completed = 0 then "null"
          else float (row.row_latency_sum /. float_of_int row.row_completed) );
        ("retx_total", int row.row_retx) ])

let all ?(path = "BENCH_chaos.json") () =
  let trials = 40 in
  let seeds = [ 1; 2; 3; 4; 5 ] in
  print_newline ();
  print_endline "==============================================================";
  print_endline "Chaos: transactional replace under injected faults";
  print_endline
    (Printf.sprintf
       "%d seeded trials per scenario; replace c -> c2, deadline 25, 1 retry"
       trials);
  print_endline "==============================================================";
  Printf.printf "%-24s %6s %9s %13s %11s %13s\n" "scenario" "ok" "rollback"
    "inconsistent" "consistent" "mean latency";
  Printf.printf "%s\n" (String.make 80 '-');
  let worst = ref 1.0 in
  let transactional_rows = ref [] in
  List.iter
    (fun scenario ->
      let t = run_scenario ~trials scenario in
      let consistent =
        float_of_int (t.ok + t.rolled_back) /. float_of_int trials
      in
      worst := Float.min !worst consistent;
      transactional_rows :=
        json_of_tally ~trials scenario t :: !transactional_rows;
      let mean_latency =
        if t.ok = 0 then "-"
        else Printf.sprintf "%10.2f vt" (t.latency_sum /. float_of_int t.ok)
      in
      Printf.printf "%-24s %6d %9d %13d %10.0f%% %13s\n" scenario.sc_name t.ok
        t.rolled_back t.inconsistent (100.0 *. consistent) mean_latency)
    scenarios;
  Printf.printf "%s\n" (String.make 80 '-');
  Printf.printf "worst-case consistency: %.0f%% (threshold 95%%)\n"
    (100.0 *. !worst);
  print_newline ();
  print_endline "==============================================================";
  print_endline "Chaos: exactly-once replace over reliable routes";
  print_endline
    (Printf.sprintf
       "%d seed(s) per cell; loss swept 0-20%%; every trial must complete \
        with an exactly-once tap history"
       (List.length seeds));
  print_endline "==============================================================";
  Printf.printf "%-20s %8s %9s %12s %9s %13s\n" "scenario" "loss" "complete"
    "exactly-once" "retx" "mean latency";
  Printf.printf "%s\n" (String.make 80 '-');
  let sweep_rows = ref [] in
  let sweep_failures = ref 0 in
  List.iter
    (fun scenario ->
      List.iter
        (fun loss ->
          let row = run_sweep_cell scenario ~loss ~seeds in
          sweep_rows := row :: !sweep_rows;
          if
            row.row_completed < row.row_trials
            || row.row_exactly_once < row.row_trials
          then incr sweep_failures;
          let mean_latency =
            if row.row_completed = 0 then "-"
            else
              Printf.sprintf "%10.2f vt"
                (row.row_latency_sum /. float_of_int row.row_completed)
          in
          Printf.printf "%-20s %7.0f%% %5d/%-3d %8d/%-3d %9d %13s\n"
            scenario.sw_name (100.0 *. loss) row.row_completed row.row_trials
            row.row_exactly_once row.row_trials row.row_retx mean_latency)
        sweep_losses)
    sweep_scenarios;
  Printf.printf "%s\n" (String.make 80 '-');
  Printf.printf "sweep cells with any failure: %d (threshold 0)\n"
    !sweep_failures;
  let json =
    Json_out.(
      obj
        [ ("suite", str "chaos");
          ("transactional_trials", int trials);
          ("transactional", arr (List.rev !transactional_rows));
          ("sweep_seeds", int (List.length seeds));
          ("reliable_sweep", arr (List.rev_map json_of_sweep_row !sweep_rows))
        ])
  in
  Json_out.write path json;
  if !worst < 0.95 || !sweep_failures > 0 then exit 1
