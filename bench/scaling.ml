(* Bus scaling suite: an N-member token ring with N/10 tokens, warmed
   up and then run for a fixed virtual horizon, measuring load and
   deploy time, the words the settled bus holds per instance, wall-clock
   deliveries/sec, engine events per delivery and the minor and
   promoted words a delivery costs in the steady state. One row per N.

   Run with: dune exec bench/main.exe -- scaling            (full sweep)
             dune exec bench/main.exe -- scaling --quick    (CI smoke)

   Each N gets its own horizon, sized so that every row does about the
   same number of deliveries (the work is fixed by virtual time, never
   by an event budget). Before the timed horizon each row runs 40 vms
   untimed, two passes per member, so every member's first-touch
   allocations are behind it and the row measures a steady state. The
   gates are deterministic facts, not speed ratios: at N >= 1000 the
   settled bus holds at most 150 words per instance
   ([Obj.reachable_words] of the bus once every member has parked on
   its first read, over N), and the bus spends at most 1.1 engine
   events and allocates at most 10 minor words per delivery. The minor
   words come from the GC's counters around the timed run. Both
   word counts repeat exactly for a given build (not across compilers
   or build profiles). The full
   sweep also gates the 100k deploy on bounded wall-clock time, asserts
   the complete row set and writes BENCH_scaling.json. The quick sweep
   writes _build/bench/BENCH_scaling_quick.json, outside the tracked
   tree, so a CI run can never touch a committed artifact. *)

module Bus = Dr_bus.Bus
module Ring = Dr_workloads.Ring

type row = {
  sc_n : int;
  sc_load_ms : float;  (* [Ring.load_large]: read, validate, prepare *)
  sc_deploy_ms : float;
  sc_words_per_instance : float;  (* the settled bus, over N *)
  sc_horizon : float;  (* virtual ms the ring runs timed, after [warmup] *)
  sc_events : int;
  sc_deliveries : int;
  sc_rate : float;  (* deliveries per wall-clock second *)
  sc_minor_words : float;  (* allocated during the timed run *)
  sc_promoted_words : float;  (* promoted during the timed run *)
}

let tokens n = max 1 (n / 10)

(* A token pass costs about 2 virtual ms (1 remote hop plus the member's
   quantum), so this horizon gives about [deliveries] passes at any N. *)
let horizon_for ~deliveries n =
  Float.round (2.0 *. float_of_int deliveries /. float_of_int (tokens n))

(* Untimed virtual ms after settling: N/10 tokens pass 20 times each,
   two passes per member at any N. *)
let warmup = 40.0

let run_one ~n ~horizon =
  let tl = Unix.gettimeofday () in
  let system = Ring.load_large ~n in
  let t0 = Unix.gettimeofday () in
  let bus = Ring.start_large system ~n ~tokens:(tokens n) in
  let t1 = Unix.gettimeofday () in
  (* settle: every member runs its first quantum and parks on a read;
     the tokens are now in flight *)
  Bus.run ~until:0.0 bus;
  let words = Obj.reachable_words (Obj.repr bus) in
  Bus.run ~until:warmup bus;
  let engine = Bus.engine bus in
  let events0 = Dr_sim.Engine.events_fired engine in
  let passes () =
    List.fold_left
      (fun acc m -> acc + max 0 (Ring.passes bus ~instance:m))
      0 (Ring.members ~n)
  in
  let passes0 = passes () in
  let minor0 = Gc.minor_words () in
  let promoted0 = (Gc.quick_stat ()).Gc.promoted_words in
  let t2 = Unix.gettimeofday () in
  Bus.run ~until:(warmup +. horizon) bus;
  let t3 = Unix.gettimeofday () in
  let minor1 = Gc.minor_words () in
  let promoted1 = (Gc.quick_stat ()).Gc.promoted_words in
  let deliveries = passes () - passes0 in
  { sc_n = n;
    sc_load_ms = (t0 -. tl) *. 1e3;
    sc_deploy_ms = (t1 -. t0) *. 1e3;
    sc_words_per_instance = float_of_int words /. float_of_int n;
    sc_horizon = horizon;
    sc_events = Dr_sim.Engine.events_fired engine - events0;
    sc_deliveries = deliveries;
    sc_rate = float_of_int deliveries /. (t3 -. t2);
    sc_minor_words = minor1 -. minor0;
    sc_promoted_words = promoted1 -. promoted0 }

let per_delivery r x = x /. float_of_int (max 1 r.sc_deliveries)

let events_per_delivery r = per_delivery r (float_of_int r.sc_events)

let minor_per_delivery r = per_delivery r r.sc_minor_words

let promoted_per_delivery r = per_delivery r r.sc_promoted_words


let header () =
  print_newline ();
  print_endline "==============================================================";
  print_endline "Bus scaling: N-member ring, N/10 tokens, warm-up, then a fixed horizon";
  print_endline "==============================================================";
  Printf.printf "%8s %10s %12s %10s %9s %10s %12s %8s %14s %9s %9s\n" "N"
    "load(ms)" "deploy(ms)" "words/inst" "horizon" "events" "deliveries"
    "ev/del" "deliveries/s" "minor/del" "promo/del";
  Printf.printf "%s\n" (String.make 120 '-')

let sweep ~sizes ~deliveries =
  List.map
    (fun n ->
      let r = run_one ~n ~horizon:(horizon_for ~deliveries n) in
      Printf.printf
        "%8d %10.1f %12.1f %10.1f %9.0f %10d %12d %8.3f %14.0f %9.2f %9.2f\n%!"
        r.sc_n r.sc_load_ms r.sc_deploy_ms r.sc_words_per_instance r.sc_horizon
        r.sc_events r.sc_deliveries (events_per_delivery r) r.sc_rate
        (minor_per_delivery r) (promoted_per_delivery r);
      r)
    sizes

let row_json r =
  Json_out.obj
    [ ("n", Json_out.int r.sc_n);
      ("load_ms", Json_out.float r.sc_load_ms);
      ("deploy_ms", Json_out.float r.sc_deploy_ms);
      ("words_per_instance", Json_out.float r.sc_words_per_instance);
      ("warmup_vms", Json_out.float warmup);
      ("horizon_vms", Json_out.float r.sc_horizon);
      ("events", Json_out.int r.sc_events);
      ("deliveries", Json_out.int r.sc_deliveries);
      ("events_per_delivery", Json_out.float (events_per_delivery r));
      ("deliveries_per_sec", Json_out.float r.sc_rate);
      ("minor_words_per_delivery", Json_out.float (minor_per_delivery r));
      ("promoted_words_per_delivery", Json_out.float (promoted_per_delivery r))
    ]

let write_artifact ~path rows =
  Json_out.write path
    (Json_out.obj
       [ ("suite", Json_out.str "scaling");
         ("rows", Json_out.arr (List.map row_json rows)) ])

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("scaling: GATE FAILED: " ^ msg);
      exit 1)
    fmt

(* Deterministic gates: an instance holds only what it uses, the batched
   path keeps the bus at about one engine event per delivery, and a
   delivery allocates only about what it keeps. *)
let gate_rows rows =
  List.iter
    (fun r ->
      if r.sc_n >= 1000 && r.sc_words_per_instance > 150.0 then
        fail "N=%d: %.1f words per instance (gate <= 150)" r.sc_n
          r.sc_words_per_instance;
      if r.sc_n >= 1000 && events_per_delivery r > 1.1 then
        fail "N=%d: %.3f events per delivery (gate <= 1.1)" r.sc_n
          (events_per_delivery r);
      if r.sc_n >= 1000 && minor_per_delivery r > 10.0 then
        fail "N=%d: %.1f minor words per delivery (gate <= 10)" r.sc_n
          (minor_per_delivery r))
    rows;
  Printf.printf
    "gate: words/instance <= 150, events/delivery <= 1.1 and minor \
     words/delivery <= 10 at N >= 1000\n%!"

let full ?(sizes = [ 10; 100; 1000; 10_000; 100_000 ]) () =
  header ();
  let rows = sweep ~sizes ~deliveries:200_000 in
  (* deploy-time gate: the 100k-instance deploy must complete in bounded
     wall-clock time, not just eventually *)
  (match List.find_opt (fun r -> r.sc_n = 100_000) rows with
  | Some r ->
    Printf.printf "N=100000 deploy: %.1f ms (gate <= 120000)\n%!"
      r.sc_deploy_ms;
    if r.sc_deploy_ms > 120_000.0 then fail "100k deploy exceeded 120s"
  | None -> ());
  gate_rows rows;
  write_artifact ~path:"BENCH_scaling.json" rows

let quick ?(sizes = [ 10; 1000; 10_000 ]) () =
  header ();
  let rows = sweep ~sizes ~deliveries:100_000 in
  gate_rows rows;
  let dir = Filename.concat "_build" "bench" in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ "_build"; dir ];
  write_artifact ~path:(Filename.concat dir "BENCH_scaling_quick.json") rows

let all ?quick:(q = false) () = if q then quick () else full ()
