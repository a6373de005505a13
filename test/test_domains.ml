(* The broker domain: the bus's memoized routes and per-hop batched
   delivery. These tests pin down:
   - fan-in under batched delivery: per-route FIFO,
   - model-checking granularity: in MC mode every routed message is its
     own [deliver] choice point and a woken reader's quantum its own
     event,
   - delivery counting: the bus counts every enqueue the delivery
     observer sees, reliable-layer arrivals included,
   - a 1k kill/re-spawn regression: a stale out-route memo entry must
     never misroute a delivery,
   - detector overhead flatness: suspicion bookkeeping is incremental,
     so checks stay constant per instance and stop once suspected.
   Plus a guard that the full scaling artifact carries every row. *)

module Bus = Dr_bus.Bus
module Reliable = Dr_bus.Reliable
module Ring = Dr_workloads.Ring
module Detector = Dr_reconfig.Detector
module Machine = Dr_interp.Machine

(* ------------------------------------ fan-in order under batching *)

(* Two producers on one host write interleaved token streams into a
   single consumer: their same-instant sends land in the same batch,
   and the drain must deliver each route's tokens in send order. *)
let fan_mil =
  {|
module prod {
  source = "./prod.exe";
  use interface in pattern {integer};
  define interface out pattern {integer};
}

module cons {
  source = "./cons.exe";
  use interface in pattern {integer};
}

application fan {
  instance pa = prod on "hostA";
  instance pb = prod on "hostA";
  instance k = cons on "hostA";
  bind "pa out" "k in";
  bind "pb out" "k in";
}
|}

let prod_source =
  {|
module prod;

var i: int = 0;
var base: int = 0;

proc main() {
  mh_init();
  mh_read("in", base);
  while (i < 8) {
    i = i + 1;
    mh_write("out", base + i);
  }
}
|}

let cons_source =
  {|
module cons;

var seen: int = 0;

proc main() {
  var v: int;
  mh_init();
  while (true) {
    mh_read("in", v);
    seen = seen + 1;
    print(v);
  }
}
|}

let fan_history () =
  let system =
    match
      Dynrecon.System.load ~mil:fan_mil
        ~sources:[ ("prod", prod_source); ("cons", cons_source) ]
        ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "fan load: %s" e
  in
  let bus =
    match
      Dynrecon.System.start system ~app:"fan" ~hosts:Ring.hosts
        ~default_host:"hostA" ()
    with
    | Ok bus -> bus
    | Error e -> Alcotest.failf "fan start: %s" e
  in
  Bus.inject bus ~dst:("pa", "in") (Dr_state.Value.Vint 100);
  Bus.inject bus ~dst:("pb", "in") (Dr_state.Value.Vint 200);
  Bus.run bus;
  List.filter_map int_of_string_opt (Bus.outputs bus ~instance:"k")

let test_fan_in_fifo () =
  let expect_route base history =
    List.filter (fun v -> v > base && v <= base + 100) history
  in
  let history = fan_history () in
  Alcotest.(check int) "token count" 16 (List.length history);
  (* order within each producer->consumer route is send order *)
  List.iter
    (fun base ->
      Alcotest.(check (list int))
        (Printf.sprintf "route order (base %d)" base)
        (List.init 8 (fun i -> base + i + 1))
        (expect_route base history))
    [ 100; 200 ]

(* ------------------------------------ model-checking granularity *)

(* Production delivers a batch and then runs the woken readers; the
   explorer must see each of those steps as its own transition, or it
   fuses interleavings that production can take. Two producers send to
   one consumer at the same instant: in MC mode that must leave two
   [deliver] events touching only the consumer, and delivering one must
   leave the consumer's quantum as its own event. *)
let once_source = {|
module once;

proc main() {
  mh_init();
  mh_write("out", 1);
}
|}

let sink_source = {|
module sink;

proc main() {
  var v: int;
  mh_init();
  while (true) {
    mh_read("in", v);
  }
}
|}

let kinds engine =
  List.map
    (fun (pe : Dr_sim.Engine.pending_event) ->
      (pe.pe_label.lb_kind, pe.pe_label.lb_touch))
    (Dr_sim.Engine.mc_pending engine)

let fire_first engine kind =
  match
    List.find_opt
      (fun (pe : Dr_sim.Engine.pending_event) ->
        String.equal pe.pe_label.lb_kind kind)
      (Dr_sim.Engine.mc_pending engine)
  with
  | Some pe -> Dr_sim.Engine.mc_fire engine ~seq:pe.pe_seq
  | None -> false

let test_mc_granularity () =
  let bus = Bus.create ~hosts:Ring.hosts () in
  let engine = Bus.engine bus in
  Dr_sim.Engine.mc_enable engine;
  List.iter
    (fun source ->
      match Bus.register_program bus (Support.parse source) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "register: %s" e)
    [ once_source; sink_source ];
  List.iter
    (fun (instance, module_name) ->
      match Bus.spawn bus ~instance ~module_name ~host:"hostA" () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "spawn %s: %s" instance e)
    [ ("pa", "once"); ("pb", "once"); ("k", "sink") ];
  Bus.add_route bus ~src:("pa", "out") ~dst:("k", "in");
  Bus.add_route bus ~src:("pb", "out") ~dst:("k", "in");
  while fire_first engine "quantum" do () done;
  let deliver = ("deliver", [ "k" ]) in
  Alcotest.(check (list (pair string (list string))))
    "one deliver event per message" [ deliver; deliver ] (kinds engine);
  ignore (fire_first engine "deliver");
  Alcotest.(check (list (pair string (list string))))
    "woken reader's quantum is its own event"
    [ deliver; ("quantum", [ "k" ]) ]
    (kinds engine)

(* ------------------------------------ 1k kill/re-spawn regression *)

(* n relay->store pairs across two hosts. Stores are killed and
   re-spawned under the same names in reverse order, so every relay's
   out-route memo entry, and every entry parked in a delivery batch,
   holds a dead process whose name now belongs to a new one: each must
   re-resolve by name, never deliver to the dead record. *)
let pairs_n = 1000

let pairs_mil ~n =
  let buf = Buffer.create (512 + (n * 96)) in
  Buffer.add_string buf
    {|module relay {
  source = "./relay.exe";
  use interface in pattern {integer};
  define interface out pattern {integer};
}

module store {
  source = "./store.exe";
  use interface in pattern {integer};
}

application pairs {
|};
  for i = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  instance s%d = relay on \"hostA\";\n" i);
    Buffer.add_string buf
      (Printf.sprintf "  instance r%d = store on \"hostB\";\n" i)
  done;
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "  bind \"s%d out\" \"r%d in\";\n" i i)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let relay_source =
  {|
module relay;

proc main() {
  var v: int;
  mh_init();
  while (true) {
    mh_read("in", v);
    v = v + 1;
    mh_write("out", v);
  }
}
|}

let store_source =
  {|
module store;

var seen: int = 0;

proc main() {
  var v: int;
  mh_init();
  while (true) {
    mh_read("in", v);
    seen = v;
  }
}
|}

let store_seen bus i =
  match Bus.machine bus ~instance:(Printf.sprintf "r%d" i) with
  | Some m -> (
    match Machine.read_global m "seen" with
    | Some (Dr_state.Value.Vint v) -> v
    | _ -> min_int)
  | None -> min_int

let assert_stores bus ~phase ~expect =
  for i = 0 to pairs_n - 1 do
    let got = store_seen bus i in
    if got <> expect i then
      Alcotest.failf "%s: store r%d saw %d, expected %d (misrouted delivery)"
        phase i got (expect i);
    let pending = Bus.pending_messages bus (Printf.sprintf "r%d" i, "in") in
    if pending <> 0 then
      Alcotest.failf "%s: store r%d still has %d queued messages" phase i
        pending
  done

let kill_and_respawn_reversed bus =
  for i = 0 to pairs_n - 1 do
    Bus.kill bus ~instance:(Printf.sprintf "r%d" i)
  done;
  for i = pairs_n - 1 downto 0 do
    match
      Bus.spawn bus
        ~instance:(Printf.sprintf "r%d" i)
        ~module_name:"store" ~host:"hostB" ()
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "respawn r%d: %s" i e
  done

let test_kill_respawn_no_misroute () =
  let system =
    match
      Dynrecon.System.load ~mil:(pairs_mil ~n:pairs_n)
        ~sources:[ ("relay", relay_source); ("store", store_source) ]
        ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "pairs load: %s" e
  in
  let bus =
    match
      Dynrecon.System.start system ~app:"pairs" ~hosts:Ring.hosts
        ~default_host:"hostA" ()
    with
    | Ok bus -> bus
    | Error e -> Alcotest.failf "pairs start: %s" e
  in
  (* phase 1: warm every relay's out-route memo *)
  for i = 0 to pairs_n - 1 do
    Bus.inject bus
      ~dst:(Printf.sprintf "s%d" i, "in")
      (Dr_state.Value.Vint (10 * i))
  done;
  Bus.run bus;
  assert_stores bus ~phase:"warmup" ~expect:(fun i -> (10 * i) + 1);
  (* phase 2: stale memos — every entry holds a dead process *)
  kill_and_respawn_reversed bus;
  for i = 0 to pairs_n - 1 do
    Bus.inject bus
      ~dst:(Printf.sprintf "s%d" i, "in")
      (Dr_state.Value.Vint (20 * i))
  done;
  Bus.run bus;
  assert_stores bus ~phase:"after re-spawn" ~expect:(fun i -> (20 * i) + 1);
  (* phase 3: kill/re-spawn while deliveries are parked in delivery
     batches, so the entries they hold must see their process dead and
     fall back to by-name resolution *)
  for i = 0 to pairs_n - 1 do
    Bus.inject bus
      ~dst:(Printf.sprintf "s%d" i, "in")
      (Dr_state.Value.Vint (30 * i))
  done;
  Dr_sim.Engine.schedule (Bus.engine bus) ~delay:0.5 (fun () ->
      kill_and_respawn_reversed bus);
  Bus.run bus;
  assert_stores bus ~phase:"in-flight re-spawn" ~expect:(fun i -> (30 * i) + 1)

(* ------------------------------------ detector overhead flatness *)

(* Watch n instances that never produce evidence: each costs exactly
   [threshold] silence checks (one per escalation level) and then,
   suspected, costs nothing at all — however long the run and however
   big the fleet. *)
let detector_checks ~n ~until =
  let bus = Bus.create ~hosts:Ring.hosts () in
  let names = List.init n (Printf.sprintf "ghost%d") in
  let det = Detector.start bus ~watch:names in
  Bus.run ~until bus;
  let checks = Detector.checks_performed det in
  let beats = Detector.beats_emitted det in
  Detector.stop det;
  (checks, beats)

let test_detector_flat () =
  let threshold = Bus.default_detector_config.Bus.dc_threshold in
  (* constant per instance, independent of fleet size *)
  List.iter
    (fun n ->
      let checks, beats = detector_checks ~n ~until:20.0 in
      Alcotest.(check int)
        (Printf.sprintf "checks for %d silent instances" n)
        (threshold * n) checks;
      Alcotest.(check int)
        (Printf.sprintf "beats for %d unspawned instances" n)
        0 beats)
    [ 40; 400 ];
  (* flat over time: once suspected, a run 4x longer costs no more *)
  let short, _ = detector_checks ~n:100 ~until:12.0 in
  let long, _ = detector_checks ~n:100 ~until:48.0 in
  Alcotest.(check int) "no further checks after suspicion" short long

(* ------------------------------------ delivery counting *)

let delivered_sum bus =
  List.fold_left (fun acc d -> acc + d.Bus.d_delivered) 0 (Bus.domain_stats bus)

(* Over one window of the 3-member ring: the enqueues the delivery
   observer saw, and how far the bus's delivered count moved. *)
let delivery_window ~reliable =
  let bus = Ring.start (Ring.load ()) in
  if reliable then Reliable.enable_all (Reliable.attach bus);
  let seen = ref 0 in
  Bus.set_delivery_observer bus (Some (fun ~dst:_ ~kind:_ _ -> incr seen));
  let before = delivered_sum bus in
  Bus.run ~until:40.0 bus;
  (!seen, delivered_sum bus - before)

let test_delivery_counting () =
  List.iter
    (fun reliable ->
      let seen, counted = delivery_window ~reliable in
      let label = if reliable then "reliable" else "plain" in
      Alcotest.(check bool) (label ^ ": the ring delivered") true (seen > 0);
      Alcotest.(check int) (label ^ ": the bus counts every enqueue") seen counted)
    [ false; true ]

(* ------------------------------------ scaling artifact row set *)

let occurrences ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i acc =
    if i + n > m then acc
    else go (i + 1) (if String.equal (String.sub s i n) sub then acc + 1 else acc)
  in
  go 0 0

let contains ~sub s = occurrences ~sub s > 0

(* The full artifact lives at the repo root (a dune dep of this test).
   A quick CI sweep writes _build/bench/BENCH_scaling_quick.json
   instead, so the full row set — one row per N = 10 .. 100k — must
   always be present here. *)
let test_scaling_artifact_rows () =
  let data =
    In_channel.with_open_bin "../BENCH_scaling.json" In_channel.input_all
  in
  Alcotest.(check bool)
    "artifact is the scaling suite" true
    (contains ~sub:"\"suite\": \"scaling\"" data);
  List.iter
    (fun n ->
      let key = Printf.sprintf "{\"n\": %d, " n in
      if not (contains ~sub:key data) then
        Alcotest.failf "BENCH_scaling.json is missing the row %s...}" key)
    [ 10; 100; 1000; 10_000; 100_000 ];
  Alcotest.(check int) "one row per N" 5 (occurrences ~sub:"{\"n\": " data)

let () =
  Alcotest.run "domains"
    [ ( "single-domain delivery",
        [ Alcotest.test_case "fan-in FIFO under batching" `Quick
            test_fan_in_fifo;
          Alcotest.test_case "one MC choice point per delivery" `Quick
            test_mc_granularity;
          Alcotest.test_case "bus counts every delivery" `Quick
            test_delivery_counting ] );
      ( "stale memo entries",
        [ Alcotest.test_case "1k kill/re-spawn, zero misroutes" `Quick
            test_kill_respawn_no_misroute ] );
      ( "detector overhead",
        [ Alcotest.test_case "checks flat per instance and over time" `Quick
            test_detector_flat ] );
      ( "artifacts",
        [ Alcotest.test_case "full scaling artifact keeps every row" `Quick
            test_scaling_artifact_rows ] ) ]
