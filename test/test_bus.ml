module Bus = Dr_bus.Bus
module Machine = Dr_interp.Machine
module Value = Dr_state.Value
module E = Dr_sim.Trace_event

let hosts =
  [ { Bus.host_name = "hostA"; arch = Dr_state.Arch.x86_64 };
    { Bus.host_name = "hostB"; arch = Dr_state.Arch.sparc32 } ]

let make_bus ?params () = Bus.create ?params ~hosts ()

let register bus source =
  match Bus.register_program bus (Support.parse source) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "register: %s" e

let spawn bus ~instance ~module_name ~host =
  match Bus.spawn bus ~instance ~module_name ~host () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "spawn: %s" e

let producer =
  {|
module producer;
var i: int = 0;
proc main() {
  mh_init();
  while (i < 5) {
    i = i + 1;
    mh_write("out", i);
  }
}
|}

let consumer =
  {|
module consumer;
proc main() {
  var x: int;
  var got: int;
  mh_init();
  while (got < 5) {
    mh_read("in", x);
    got = got + 1;
    print("recv ", x);
  }
}
|}

let test_spawn_and_route () =
  let bus = make_bus () in
  register bus producer;
  register bus consumer;
  spawn bus ~instance:"p" ~module_name:"producer" ~host:"hostA";
  spawn bus ~instance:"c" ~module_name:"consumer" ~host:"hostB";
  Bus.add_route bus ~src:("p", "out") ~dst:("c", "in");
  Bus.run bus;
  Alcotest.(check (list string)) "all delivered in order"
    [ "recv 1"; "recv 2"; "recv 3"; "recv 4"; "recv 5" ]
    (Bus.outputs bus ~instance:"c");
  Alcotest.(check bool) "producer halted" true
    (Bus.process_status bus ~instance:"p" = Some Machine.Halted);
  Alcotest.(check bool) "consumer halted" true
    (Bus.process_status bus ~instance:"c" = Some Machine.Halted)

let test_unbound_interface_drops () =
  let bus = make_bus () in
  register bus producer;
  spawn bus ~instance:"p" ~module_name:"producer" ~host:"hostA";
  Bus.run bus;
  let drops = Dr_sim.Trace.by_category (Bus.trace bus) "drop" in
  Alcotest.(check int) "five dropped" 5 (List.length drops)

let test_fanout () =
  let bus = make_bus () in
  register bus producer;
  register bus consumer;
  spawn bus ~instance:"p" ~module_name:"producer" ~host:"hostA";
  spawn bus ~instance:"c1" ~module_name:"consumer" ~host:"hostA";
  spawn bus ~instance:"c2" ~module_name:"consumer" ~host:"hostB";
  Bus.add_route bus ~src:("p", "out") ~dst:("c1", "in");
  Bus.add_route bus ~src:("p", "out") ~dst:("c2", "in");
  Bus.run bus;
  Alcotest.(check int) "c1 got all" 5 (List.length (Bus.outputs bus ~instance:"c1"));
  Alcotest.(check int) "c2 got all" 5 (List.length (Bus.outputs bus ~instance:"c2"))

let test_latency_ordering () =
  (* same-host delivery is faster than cross-host delivery *)
  let params =
    { Bus.default_params with local_latency = 0.1; remote_latency = 50.0 }
  in
  let bus = make_bus ~params () in
  register bus producer;
  register bus consumer;
  spawn bus ~instance:"p" ~module_name:"producer" ~host:"hostA";
  spawn bus ~instance:"near" ~module_name:"consumer" ~host:"hostA";
  spawn bus ~instance:"far" ~module_name:"consumer" ~host:"hostB";
  Bus.add_route bus ~src:("p", "out") ~dst:("near", "in");
  Bus.add_route bus ~src:("p", "out") ~dst:("far", "in");
  let near_done = ref infinity and far_done = ref infinity in
  Bus.run_while bus (fun () ->
      if !near_done = infinity && List.length (Bus.outputs bus ~instance:"near") = 5
      then near_done := Bus.now bus;
      if !far_done = infinity && List.length (Bus.outputs bus ~instance:"far") = 5
      then far_done := Bus.now bus;
      !near_done = infinity || !far_done = infinity);
  Alcotest.(check bool) "near finishes first" true (!near_done < !far_done)

let test_routes_add_del () =
  let bus = make_bus () in
  Bus.add_route bus ~src:("a", "x") ~dst:("b", "y");
  Bus.add_route bus ~src:("a", "x") ~dst:("c", "z");
  Bus.add_route bus ~src:("a", "x") ~dst:("b", "y");
  Alcotest.(check int) "no duplicate routes" 2
    (List.length (Bus.routes_from bus ("a", "x")));
  Bus.del_route bus ~src:("a", "x") ~dst:("b", "y");
  Alcotest.(check (list (pair string string))) "one left" [ ("c", "z") ]
    (Bus.routes_from bus ("a", "x"));
  Alcotest.(check (list (pair string string))) "reverse lookup" [ ("a", "x") ]
    (Bus.routes_to bus ("c", "z"))

let test_queue_operations () =
  let bus = make_bus () in
  register bus consumer;
  spawn bus ~instance:"c1" ~module_name:"consumer" ~host:"hostA";
  spawn bus ~instance:"c2" ~module_name:"consumer" ~host:"hostA";
  (* park both consumers first *)
  Bus.run bus;
  Bus.inject bus ~dst:("c1", "spare") (Value.Vint 1);
  Bus.inject bus ~dst:("c1", "spare") (Value.Vint 2);
  Alcotest.(check int) "two pending" 2 (Bus.pending_messages bus ("c1", "spare"));
  Bus.copy_queue bus ~src:("c1", "spare") ~dst:("c2", "spare");
  Alcotest.(check int) "source drained" 0 (Bus.pending_messages bus ("c1", "spare"));
  Alcotest.(check int) "destination filled" 2
    (Bus.pending_messages bus ("c2", "spare"));
  Bus.drop_queue bus ("c2", "spare");
  Alcotest.(check int) "dropped" 0 (Bus.pending_messages bus ("c2", "spare"))

let test_copy_queue_to_self () =
  (* regression: copying a queue onto itself used to iterate over the
     queue while appending to it, which never terminates *)
  let bus = make_bus () in
  register bus consumer;
  spawn bus ~instance:"c1" ~module_name:"consumer" ~host:"hostA";
  Bus.run bus;
  Bus.inject bus ~dst:("c1", "spare") (Value.Vint 1);
  Bus.inject bus ~dst:("c1", "spare") (Value.Vint 2);
  Bus.copy_queue bus ~src:("c1", "spare") ~dst:("c1", "spare");
  Alcotest.(check int) "still two pending" 2
    (Bus.pending_messages bus ("c1", "spare"));
  Alcotest.(check bool) "order preserved" true
    (Bus.take_queue bus ("c1", "spare") = [ Value.Vint 1; Value.Vint 2 ])

let test_blocking_read_wakes () =
  let bus = make_bus () in
  register bus consumer;
  spawn bus ~instance:"c" ~module_name:"consumer" ~host:"hostA";
  Bus.run bus;
  Alcotest.(check bool) "blocked on in" true
    (Bus.process_status bus ~instance:"c" = Some (Machine.Blocked_read "in"));
  List.iter (fun i -> Bus.inject bus ~dst:("c", "in") (Value.Vint i)) [ 1; 2; 3; 4; 5 ];
  Bus.run bus;
  Alcotest.(check int) "woke and consumed" 5
    (List.length (Bus.outputs bus ~instance:"c"))

let test_kill_and_redirect () =
  let bus = make_bus () in
  register bus producer;
  register bus consumer;
  spawn bus ~instance:"p" ~module_name:"producer" ~host:"hostA";
  spawn bus ~instance:"old" ~module_name:"consumer" ~host:"hostB";
  spawn bus ~instance:"new" ~module_name:"consumer" ~host:"hostB";
  Bus.add_route bus ~src:("p", "out") ~dst:("old", "in");
  (* let the producer send everything; messages are in flight to old *)
  Bus.run_while bus (fun () ->
      Bus.process_status bus ~instance:"p" <> Some Machine.Halted);
  (* rebind to new and kill old while messages are still in flight *)
  Bus.del_route bus ~src:("p", "out") ~dst:("old", "in");
  Bus.add_route bus ~src:("p", "out") ~dst:("new", "in");
  Bus.kill bus ~instance:"old";
  Bus.run bus;
  Alcotest.(check int) "in-flight messages redirected to the new binding" 5
    (List.length (Bus.outputs bus ~instance:"new"))

let test_redirect_no_multicast_duplicates () =
  (* regression: a lost in-flight message used to be re-fanned-out to
     every current route of its source, so on a multicast binding the
     surviving destinations received it a second time *)
  let bus = make_bus () in
  register bus producer;
  register bus consumer;
  spawn bus ~instance:"p" ~module_name:"producer" ~host:"hostA";
  spawn bus ~instance:"d1" ~module_name:"consumer" ~host:"hostB";
  spawn bus ~instance:"d2" ~module_name:"consumer" ~host:"hostB";
  Bus.add_route bus ~src:("p", "out") ~dst:("d1", "in");
  Bus.add_route bus ~src:("p", "out") ~dst:("d2", "in");
  Bus.run_while bus (fun () ->
      Bus.process_status bus ~instance:"p" <> Some Machine.Halted);
  (* messages are in flight to both; rebind d1's half to a fresh
     instance and kill d1 *)
  spawn bus ~instance:"d1n" ~module_name:"consumer" ~host:"hostB";
  Bus.del_route bus ~src:("p", "out") ~dst:("d1", "in");
  Bus.add_route bus ~src:("p", "out") ~dst:("d1n", "in");
  Bus.kill bus ~instance:"d1";
  Bus.run bus;
  Alcotest.(check int) "redirected to the rebinding only" 5
    (List.length (Bus.outputs bus ~instance:"d1n"));
  Alcotest.(check int) "surviving destination got no duplicates" 5
    (List.length (Bus.outputs bus ~instance:"d2"))

let trace_details bus ~category =
  List.map
    (fun (e : Dr_sim.Trace.entry) -> e.detail)
    (Dr_sim.Trace.by_category (Bus.trace bus) category)

let test_kill_accounting () =
  let bus = make_bus () in
  register bus consumer;
  spawn bus ~instance:"c" ~module_name:"consumer" ~host:"hostA";
  Bus.run bus;
  Bus.inject bus ~dst:("c", "spare") (Value.Vint 1);
  Bus.inject bus ~dst:("c", "spare") (Value.Vint 2);
  Bus.inject bus ~dst:("c", "other") (Value.Vint 3);
  Bus.on_divulge bus ~instance:"c" (fun _ ->
      Alcotest.fail "cancelled callback must not fire");
  Bus.kill bus ~instance:"c";
  Alcotest.(check bool) "pending divulge callback cancellation traced" true
    (List.mem "c removed with a pending divulge callback; cancelled"
       (trace_details bus ~category:"state"));
  Alcotest.(check bool) "undelivered messages counted" true
    (List.mem "c removed with 3 undelivered message(s)"
       (trace_details bus ~category:"queue"));
  (* late reconfiguration traffic aimed at the dead instance must leave
     an audit trail rather than silently no-op *)
  Bus.on_divulge bus ~instance:"c" (fun _ -> ());
  Bus.deposit_state bus ~instance:"c"
    (Dr_state.Image.empty ~source_module:"consumer");
  let audit = trace_details bus ~category:"audit" in
  Alcotest.(check bool) "late on_divulge traced" true
    (List.mem "divulge callback for dead instance c discarded" audit);
  Alcotest.(check bool) "late deposit_state traced" true
    (List.mem "state image for dead instance c discarded" audit)

(* A divulge callback runs inside the divulging instance's quantum, and
   a machine killed there runs the rest of that quantum: a send it makes
   then must be discarded and counted, not routed from the freed slot. *)
let test_killed_in_own_quantum_sends () =
  let writer =
    "module w;\n\
     proc main() { mh_init(); mh_encode(); print(7); mh_write(\"out\", 1); \
     print(8); }"
  in
  let run ~kill =
    let bus = make_bus () in
    let registry = Dr_obs.Metrics.create () in
    Bus.set_metrics bus registry;
    register bus writer;
    register bus consumer;
    spawn bus ~instance:"w0" ~module_name:"w" ~host:"hostA";
    spawn bus ~instance:"s0" ~module_name:"consumer" ~host:"hostB";
    Bus.add_route bus ~src:("w0", "out") ~dst:("s0", "in");
    if kill then
      Bus.on_divulge bus ~instance:"w0" (fun _ -> Bus.kill bus ~instance:"w0");
    Bus.run ~until:20.0 bus;
    (bus, registry)
  in
  let twin, _ = run ~kill:false in
  let bus, registry = run ~kill:true in
  let w0 bus = List.find (fun e -> e.Bus.r_instance = "w0") (Bus.roster bus) in
  Alcotest.(check (list string)) "ran out its quantum" [ "7"; "8" ]
    (Bus.outputs bus ~instance:"w0");
  Alcotest.(check (list string)) "send discarded" []
    (Bus.outputs bus ~instance:"s0");
  Alcotest.(check int) "counted as dropped" 1
    (Dr_obs.Metrics.counter_value registry
       ~labels:[ ("instance", "w0") ] "bus.dropped");
  Alcotest.(check (list string)) "traced as a drop"
    [ "w0.out sent after w0 was removed; message discarded" ]
    (trace_details bus ~category:"drop");
  let entry = w0 bus in
  Alcotest.(check bool) "removed" true (entry.r_status = None);
  Alcotest.(check int) "every instruction of that quantum counted"
    (w0 twin).r_instrs entry.r_instrs

(* A removed instance keeps its history record but not its execution
   state. One killed from outside its quantum is cleared at once; one
   killed by its own divulge callback runs out that quantum first, and
   is cleared when it ends. *)
let test_kill_releases_state () =
  let holder =
    "module h;\n\
     var a: int[];\n\
     proc main() { var x: int; a = alloc_int(8); mh_init(); mh_encode(); \
     print(7); mh_read(\"in\", x); }"
  in
  let held m = (Machine.stack_depth m, Machine.heap_size m) in
  let state = Alcotest.(pair int int) in
  let start () =
    let bus = make_bus () in
    register bus holder;
    spawn bus ~instance:"h0" ~module_name:"h" ~host:"hostA";
    match Bus.machine bus ~instance:"h0" with
    | Some m -> (bus, m)
    | None -> Alcotest.fail "h0 not live"
  in
  (* killed from outside, blocked on its read *)
  let bus, m = start () in
  Bus.run ~until:20.0 bus;
  Alcotest.(check bool) "blocked with a stack and a heap" true
    (fst (held m) > 0 && snd (held m) > 0);
  let instrs = Machine.instr_count m in
  Bus.kill bus ~instance:"h0";
  Alcotest.check state "cleared at once" (0, 0) (held m);
  let entry =
    List.find (fun e -> e.Bus.r_instance = "h0") (Bus.roster bus)
  in
  Alcotest.(check int) "history keeps its count" instrs entry.r_instrs;
  (* killed by its own divulge callback *)
  let bus, m = start () in
  let inside = ref (0, 0) in
  Bus.on_divulge bus ~instance:"h0" (fun _ ->
      Bus.kill bus ~instance:"h0";
      inside := held m);
  Bus.run ~until:20.0 bus;
  Alcotest.(check bool) "kept while its quantum runs" true
    (fst !inside > 0 && snd !inside > 0);
  Alcotest.(check (list string)) "ran out its quantum" [ "7" ]
    (Bus.outputs bus ~instance:"h0");
  Alcotest.check state "cleared when the quantum ended" (0, 0) (held m)

let test_spawn_errors () =
  let bus = make_bus () in
  register bus producer;
  (match Bus.spawn bus ~instance:"x" ~module_name:"ghost" ~host:"hostA" () with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown module accepted");
  (match Bus.spawn bus ~instance:"x" ~module_name:"producer" ~host:"nohost" () with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown host accepted");
  spawn bus ~instance:"x" ~module_name:"producer" ~host:"hostA";
  match Bus.spawn bus ~instance:"x" ~module_name:"producer" ~host:"hostA" () with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate instance accepted"

let test_register_rejects_ill_typed () =
  let bus = make_bus () in
  match Bus.register_program bus (Support.parse "module bad;\nproc main() { x = 1; }") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "ill-typed program registered"

let test_instr_cost_advances_clock () =
  (* with a tiny quantum, virtual time accumulates per executed slice;
     only the final (halting) quantum's cost goes unaccounted *)
  let params = { Bus.default_params with instr_cost = 1.0; quantum = 4 } in
  let bus = Bus.create ~params ~hosts () in
  register bus producer;
  spawn bus ~instance:"p" ~module_name:"producer" ~host:"hostA";
  Bus.run bus;
  let executed =
    Machine.instr_count (Option.get (Bus.machine bus ~instance:"p"))
  in
  Alcotest.(check bool) "clock reflects instruction cost" true
    (Bus.now bus >= float_of_int (executed - 4) *. 1.0)

let test_crash_is_traced () =
  let bus = make_bus () in
  register bus "module boom;\nproc main() { print(1 / 0); }";
  spawn bus ~instance:"b" ~module_name:"boom" ~host:"hostA";
  Bus.run bus;
  (match Bus.process_status bus ~instance:"b" with
  | Some (Machine.Crashed _) -> ()
  | s ->
    Alcotest.failf "expected crash, got %s"
      (match s with Some s -> Fmt.str "%a" Machine.pp_status s | None -> "gone"));
  Alcotest.(check int) "crash traced" 1
    (List.length (Dr_sim.Trace.by_category (Bus.trace bus) "crash"))

(* A NaN sleep would schedule a wake-up at a NaN time, which breaks the
   event queue's order and stalls every instance on the bus: the
   sleeper crashes instead, and an unrelated instance keeps ticking. *)
let test_nan_sleep_crashes_only_the_sleeper () =
  let bus = make_bus () in
  register bus "module napper;\nproc main() { sleep(0.0 / 0.0); }";
  register bus
    "module ticker;\nproc main() { while (true) { print(1); sleep(1); } }";
  spawn bus ~instance:"z" ~module_name:"napper" ~host:"hostA";
  spawn bus ~instance:"t" ~module_name:"ticker" ~host:"hostB";
  Bus.run ~until:20.0 bus;
  (match Bus.process_status bus ~instance:"z" with
  | Some (Machine.Crashed _) -> ()
  | s ->
    Alcotest.failf "expected the sleeper to crash, got %s"
      (match s with Some s -> Fmt.str "%a" Machine.pp_status s | None -> "gone"));
  Alcotest.(check int) "one tick per virtual second" 20
    (List.length (Bus.outputs bus ~instance:"t"))

let test_deterministic_runs () =
  let run () =
    let bus = make_bus () in
    register bus producer;
    register bus consumer;
    spawn bus ~instance:"p" ~module_name:"producer" ~host:"hostA";
    spawn bus ~instance:"c" ~module_name:"consumer" ~host:"hostB";
    Bus.add_route bus ~src:("p", "out") ~dst:("c", "in");
    Bus.run bus;
    ( Bus.now bus,
      Bus.outputs bus ~instance:"c",
      Dr_sim.Trace.length (Bus.trace bus) )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

let test_deploy_monitor_app () =
  (* Deploy.deploy wiring: instances, hosts, routes (incl. the reverse
     client/server route) *)
  let system = Dr_workloads.Monitor.load () in
  let bus = Dr_workloads.Monitor.start system in
  Alcotest.(check (list string)) "instances" [ "display"; "compute"; "sensor" ]
    (Bus.instances bus);
  Alcotest.(check (option string)) "compute host" (Some "hostA")
    (Bus.instance_host bus ~instance:"compute");
  let routes = Bus.all_routes bus in
  Alcotest.(check int) "client/server gives two routes + define/use one" 3
    (List.length routes);
  Alcotest.(check bool) "reply route exists" true
    (List.mem (("compute", "display"), ("display", "temper")) routes)

let test_deploy_host_preference () =
  (* precedence: instance `on` clause > module `machine` attribute >
     default host *)
  let mil =
    {|
module w {
  machine = "hostB";
  define interface out pattern {integer};
}
module plain {
  define interface out pattern {integer};
}
application app {
  instance pinned = w on "hostA";
  instance attributed = w;
  instance fallback = plain;
}
|}
  in
  let source name =
    Printf.sprintf "module %s;\nproc main() { mh_init(); sleep(100); }" name
  in
  let system =
    match
      Dynrecon.System.load ~mil
        ~sources:[ ("w", source "w"); ("plain", source "plain") ]
        ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "load: %s" e
  in
  let bus =
    match
      Dynrecon.System.start system ~app:"app" ~hosts ~default_host:"hostA" ()
    with
    | Ok bus -> bus
    | Error e -> Alcotest.failf "start: %s" e
  in
  Alcotest.(check (option string)) "on clause wins" (Some "hostA")
    (Bus.instance_host bus ~instance:"pinned");
  Alcotest.(check (option string)) "machine attribute next" (Some "hostB")
    (Bus.instance_host bus ~instance:"attributed");
  Alcotest.(check (option string)) "default host last" (Some "hostA")
    (Bus.instance_host bus ~instance:"fallback")

let test_deploy_unknown_app () =
  let system = Dr_workloads.Monitor.load () in
  match
    Dynrecon.System.start system ~app:"nonexistent"
      ~hosts:Dr_workloads.Monitor.hosts ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown application deployed"

(* [Deploy.deploy] refuses each configuration below, which carries
   exactly one fault, with the message of the stage that finds it, before
   any instance exists: a MIL fault is [Validate.validate]'s, and a
   program that lacks a declared point is [Deploy.plan]'s, since a plan
   starts from a validated configuration. The programs are registered on
   a bus, and the plan looks them up there, as [deploy] does. *)
let plan_refusals =
  let source name body =
    Printf.sprintf "module %s;\nproc main() {\n  mh_init();\n%s\n}\n" name body
  in
  let w = source "w" "  mh_write(\"out\", 1);" in
  let r = source "r" "  var x: int;\n  mh_read(\"in\", x);" in
  let modules =
    {|
module w {
  define interface out pattern {integer};
}
module r {
  use interface in pattern {float};
}
module d {
  define interface out pattern {integer};
}
|}
  in
  [ ( "duplicate instance",
      `Validate,
      modules ^ {|application app { instance a = w; instance a = w; }|},
      [ w ],
      "application app: duplicate instance a" );
    ( "unknown module",
      `Validate,
      modules ^ {|application app { instance a = nosuch; }|},
      [ w ],
      "application app: instance a references unknown module nosuch" );
    ( "role mismatch",
      `Validate,
      modules
      ^ {|application app { instance a = w; instance b = d; bind "a out" "b out"; }|},
      [ w; source "d" "  mh_write(\"out\", 1);" ],
      "bind \"a out\" \"b out\": interface out cannot receive" );
    ( "pattern mismatch",
      `Validate,
      modules
      ^ {|application app { instance a = w; instance b = r; bind "a out" "b in"; }|},
      [ w; r ],
      "bind \"a out\" \"b in\": pattern mismatch (integer vs float)" );
    ( "program lacks a declared point",
      `Plan,
      {|
module p {
  define interface out pattern {integer};
  reconfiguration point R;
}
application app { instance a = p; }
|},
      [ source "p" "  mh_write(\"out\", 1);" ],
      "module p: reconfiguration point R has no matching label" ) ]

let test_plan_refuses_like_deploy () =
  List.iter
    (fun (what, stage, mil, sources, expected) ->
      let config = Dr_mil.Mil_parser.parse_config mil in
      let bus = make_bus () in
      List.iter (register bus) sources;
      (match Dr_mil.Validate.validate config, stage with
      | Error es, `Validate ->
        Alcotest.(check string)
          (what ^ ": validate") expected (String.concat "; " es)
      | Ok config, `Plan -> (
        match
          Dr_bus.Deploy.plan ~config ~app:"app" ~default_host:"hostA"
            ~program:(Bus.registered_program bus)
        with
        | Ok _ -> Alcotest.failf "%s: planned" what
        | Error e -> Alcotest.(check string) (what ^ ": plan") expected e)
      | Ok _, `Validate -> Alcotest.failf "%s: validated" what
      | Error es, `Plan ->
        Alcotest.failf "%s: refused by validation: %s" what
          (String.concat "; " es));
      (match Dr_bus.Deploy.deploy bus ~config ~app:"app" ~default_host:"hostA" with
      | Ok () -> Alcotest.failf "%s: deployed" what
      | Error e -> Alcotest.(check string) (what ^ ": deploy") expected e);
      Alcotest.(check (list string)) (what ^ ": nothing spawned") []
        (Bus.instances bus))
    plan_refusals

(* One plan, applied to two fresh buses, deploys the same application:
   a plan holds no bus state. *)
let test_plan_applies_twice () =
  let system = Dr_workloads.Monitor.load () in
  let programs =
    List.map Dynrecon.System.deployed_program system.Dynrecon.System.modules
  in
  let program name =
    List.find_opt
      (fun (p : Dr_lang.Ast.program) -> String.equal p.module_name name)
      programs
  in
  let plan =
    match
      Dr_bus.Deploy.plan ~config:system.Dynrecon.System.config ~app:"monitor"
        ~default_host:"hostA" ~program
    with
    | Ok plan -> plan
    | Error e -> Alcotest.failf "plan: %s" e
  in
  let boot () =
    let bus = Bus.create ~hosts:Dr_workloads.Monitor.hosts () in
    List.iter
      (fun p ->
        match Bus.register_program bus p with
        | Ok () -> ()
        | Error e -> Alcotest.failf "register: %s" e)
      programs;
    (match Dr_bus.Deploy.apply bus plan with
    | Ok () -> ()
    | Error e -> Alcotest.failf "apply: %s" e);
    let instances = Bus.instances bus in
    ( instances,
      List.map (fun i -> Bus.instance_host bus ~instance:i) instances,
      Bus.all_routes bus )
  in
  let ((instances, _, routes) as a) = boot () in
  if instances = [] || routes = [] then Alcotest.fail "nothing deployed";
  Alcotest.(check bool) "same instances, hosts and routes" true (a = boot ());
  let reference = Dr_workloads.Monitor.start system in
  Alcotest.(check bool) "as deploy gives" true
    (instances = Bus.instances reference && routes = Bus.all_routes reference)

let test_roster_records_history () =
  let bus = make_bus () in
  register bus producer;
  spawn bus ~instance:"p" ~module_name:"producer" ~host:"hostA";
  Bus.run bus;
  Bus.kill bus ~instance:"p";
  match Bus.roster bus with
  | [ entry ] ->
    Alcotest.(check string) "instance" "p" entry.r_instance;
    Alcotest.(check string) "module" "producer" entry.r_module;
    Alcotest.(check bool) "removed" true (entry.r_status = None);
    Alcotest.(check bool) "end recorded" true (entry.r_ended <> None);
    Alcotest.(check bool) "work recorded" true (entry.r_instrs > 0)
  | roster -> Alcotest.failf "expected one entry, got %d" (List.length roster)

(* ------------------------------------------------------ what it holds *)

(* Every word reachable from a settled ring's bus, per member: each
   member has run its first quantum and parked on its read. The bus is
   built without the registry DRC_METRICS would attach, which keeps
   counters per instance of its own: the pin is on what the bus holds,
   not on an observer. *)
let test_words_per_member () =
  let module Ring = Dr_workloads.Ring in
  let n = 1000 in
  let metrics = Option.value ~default:"" (Sys.getenv_opt "DRC_METRICS") in
  let bus =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "DRC_METRICS" metrics)
      (fun () ->
        Unix.putenv "DRC_METRICS" "";
        Ring.start_large (Ring.load_large ~n) ~n ~tokens:(n / 10))
  in
  Alcotest.(check bool) "no registry" true (Bus.metrics bus = None);
  Bus.run ~until:0.0 bus;
  let per_member =
    float_of_int (Obj.reachable_words (Obj.repr bus)) /. float_of_int n
  in
  if per_member > 150.0 then
    Alcotest.failf "%.1f words per member (bound 150)" per_member

(* The input queues of an instance that never reads, driven through the
   bus and checked against one [Stdlib.Queue] per interface. A queue
   exists from its interface's first touch, read-only queries included,
   and a kill counts what was left undelivered. *)
type queue_op =
  | Inject of int * int  (* interface, value *)
  | Pending of int
  | Peek of int
  | Take of int
  | Drop of int
  | Copy of int * int
  | Kill

let print_queue_op = function
  | Inject (i, v) -> Printf.sprintf "inject %d %d" i v
  | Pending i -> Printf.sprintf "pending %d" i
  | Peek i -> Printf.sprintf "peek %d" i
  | Take i -> Printf.sprintf "take %d" i
  | Drop i -> Printf.sprintf "drop %d" i
  | Copy (i, j) -> Printf.sprintf "copy %d %d" i j
  | Kill -> "kill"

let gen_queue_ops =
  let open QCheck2.Gen in
  int_range 1 3 >>= fun ifaces ->
  let iface = int_bound (ifaces - 1) in
  list_size (int_range 1 400)
    (frequency
       [ (24, map2 (fun i v -> Inject (i, v)) iface small_nat);
         (2, map (fun i -> Pending i) iface);
         (2, map (fun i -> Peek i) iface);
         (2, map (fun i -> Take i) iface);
         (1, map (fun i -> Drop i) iface);
         (2, map2 (fun i j -> Copy (i, j)) iface iface);
         (1, pure Kill) ])

let prop_queue_model =
  Support.qcheck ~count:300 "input queues behave as Stdlib.Queue"
    ~print:(fun ops -> String.concat "; " (List.map print_queue_op ops))
    gen_queue_ops
    (fun ops ->
      let bus = make_bus () in
      register bus "module idle;\nproc main() { mh_init(); }";
      let start () = spawn bus ~instance:"x" ~module_name:"idle" ~host:"hostA" in
      start ();
      let name i = [| "a"; "b"; "c" |].(i) in
      let model = Array.init 3 (fun _ -> Queue.create ()) in
      let touched = Array.make 3 false in
      let values q = List.of_seq (Queue.to_seq q) in
      let ints = List.map (fun v -> Value.Vint v) in
      let last_event () =
        let trace = Bus.trace bus in
        match Dr_sim.Trace.events_since trace (Dr_sim.Trace.length trace - 1) with
        | [ (_, ev) ] -> Some ev
        | _ -> None
      in
      let check what expected actual =
        if expected <> actual then
          QCheck2.Test.fail_reportf "%s: expected %s, got %s" what
            (String.concat "," (List.map Value.to_string expected))
            (String.concat "," (List.map Value.to_string actual))
      in
      List.iter
        (fun op ->
          (match op with
          | Inject (i, v) ->
            Bus.inject bus ~dst:("x", name i) (Value.Vint v);
            Queue.add v model.(i);
            touched.(i) <- true
          | Pending i ->
            let n = Bus.pending_messages bus ("x", name i) in
            if n <> Queue.length model.(i) then
              QCheck2.Test.fail_reportf "pending %d: expected %d, got %d" i
                (Queue.length model.(i)) n;
            touched.(i) <- true
          | Peek i ->
            check "peek" (ints (values model.(i))) (Bus.peek_queue bus ("x", name i));
            touched.(i) <- true
          | Take i ->
            check "take" (ints (values model.(i))) (Bus.take_queue bus ("x", name i));
            Queue.clear model.(i);
            touched.(i) <- true
          | Drop i ->
            let n = Queue.length model.(i) in
            Bus.drop_queue bus ("x", name i);
            if last_event () <> Some (E.Queue_removed { ep = ("x", name i); count = n })
            then QCheck2.Test.fail_reportf "drop %d: %d values not traced" i n;
            Queue.clear model.(i);
            touched.(i) <- true
          | Copy (i, j) ->
            let moved = values model.(i) in
            Bus.copy_queue bus ~src:("x", name i) ~dst:("x", name j);
            Queue.clear model.(i);
            List.iter (fun v -> Queue.add v model.(j)) moved;
            touched.(i) <- true;
            if moved <> [] then touched.(j) <- true
          | Kill ->
            let n = Array.fold_left (fun acc q -> acc + Queue.length q) 0 model in
            Bus.kill bus ~instance:"x";
            let counted =
              List.exists
                (fun (_, ev) ->
                  ev = E.Removed_undelivered { instance = "x"; count = n })
                (Dr_sim.Trace.events (Bus.trace bus))
            in
            if n > 0 && not counted then
              QCheck2.Test.fail_reportf "kill: %d undelivered not counted" n;
            Dr_sim.Trace.clear (Bus.trace bus);
            Array.iter Queue.clear model;
            Array.fill touched 0 3 false;
            start ());
          let expected =
            List.filter_map
              (fun i ->
                if touched.(i) then Some (name i, ints (values model.(i)))
                else None)
              [ 0; 1; 2 ]
          in
          if Bus.queue_contents bus ~instance:"x" <> expected then
            QCheck2.Test.fail_reportf "after %s: queue contents differ"
              (print_queue_op op))
        ops;
      true)

let () =
  Alcotest.run "bus"
    [ ( "messaging",
        [ Alcotest.test_case "spawn and route" `Quick test_spawn_and_route;
          Alcotest.test_case "unbound drops" `Quick test_unbound_interface_drops;
          Alcotest.test_case "fanout" `Quick test_fanout;
          Alcotest.test_case "latency" `Quick test_latency_ordering;
          Alcotest.test_case "blocking read wakes" `Quick test_blocking_read_wakes ] );
      ( "routes and queues",
        [ Alcotest.test_case "add/del routes" `Quick test_routes_add_del;
          Alcotest.test_case "queue ops" `Quick test_queue_operations;
          Alcotest.test_case "copy queue to itself" `Quick test_copy_queue_to_self;
          prop_queue_model;
          Alcotest.test_case "kill and redirect" `Quick test_kill_and_redirect;
          Alcotest.test_case "redirect without multicast duplicates" `Quick
            test_redirect_no_multicast_duplicates ] );
      ( "lifecycle",
        [ Alcotest.test_case "spawn errors" `Quick test_spawn_errors;
          Alcotest.test_case "register rejects ill-typed" `Quick
            test_register_rejects_ill_typed;
          Alcotest.test_case "crash traced" `Quick test_crash_is_traced;
          Alcotest.test_case "kill accounting" `Quick test_kill_accounting;
          Alcotest.test_case "killed in own quantum sends" `Quick
            test_killed_in_own_quantum_sends;
          Alcotest.test_case "kill releases state" `Quick
            test_kill_releases_state ] );
      ( "timing",
        [ Alcotest.test_case "instr cost" `Quick test_instr_cost_advances_clock;
          Alcotest.test_case "deterministic" `Quick test_deterministic_runs;
          Alcotest.test_case "NaN sleep crashes only the sleeper" `Quick
            test_nan_sleep_crashes_only_the_sleeper ] );
      ( "deploy",
        [ Alcotest.test_case "monitor app" `Quick test_deploy_monitor_app;
          Alcotest.test_case "host preference" `Quick test_deploy_host_preference;
          Alcotest.test_case "unknown app" `Quick test_deploy_unknown_app;
          Alcotest.test_case "plan refuses as deploy does" `Quick
            test_plan_refuses_like_deploy;
          Alcotest.test_case "one plan applies to two buses" `Quick
            test_plan_applies_twice;
          Alcotest.test_case "roster history" `Quick test_roster_records_history ] );
      ( "footprint",
        [ Alcotest.test_case "words per ring member" `Quick test_words_per_member ] ) ]
