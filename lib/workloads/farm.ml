module Bus = Dr_bus.Bus

let job_count = 40

let mil =
  Printf.sprintf
    {|
module feeder {
  define interface jobs pattern {integer};
}

module dispatcher {
  use interface jobs pattern {integer};
  use interface ctl pattern {integer};
  define interface out1 pattern {integer};
  define interface out2 pattern {integer};
  define interface out3 pattern {integer};
  reconfiguration point R state {active, next_slot, j};
}

module worker {
  use interface in pattern {integer};
  define interface done pattern {integer};
  reconfiguration point R;
}

module collector {
  use interface done pattern {integer};
}

application farm {
  instance feeder on "hostA";
  instance dispatcher on "hostA";
  instance w1 = worker on "hostB";
  instance collector on "hostA";
  bind "feeder jobs" "dispatcher jobs";
  bind "dispatcher out1" "w1 in";
  bind "w1 done" "collector done";
}
|}

let feeder_source =
  Printf.sprintf
    {|
module feeder;

var produced: int = 0;

proc main() {
  mh_init();
  while (produced < %d) {
    produced = produced + 1;
    mh_write("jobs", produced);
    sleep(1);
  }
}
|}
    job_count

(* Round-robins jobs over the active slots. [active] is live application
   state: raised/lowered by ctl messages, and captured with the
   dispatcher when it migrates. *)
let dispatcher_source =
  {|
module dispatcher;

var active: int = 1;
var next_slot: int = 0;

proc main() {
  var j: int;
  mh_init();
  while (true) {
    while (mh_query("ctl")) {
      mh_read("ctl", active);
      if (next_slot >= active) { next_slot = 0; }
    }
    R: mh_read("jobs", j);
    if (next_slot == 0) { mh_write("out1", j); }
    if (next_slot == 1) { mh_write("out2", j); }
    if (next_slot == 2) { mh_write("out3", j); }
    next_slot = (next_slot + 1) % active;
  }
}
|}

let worker_source =
  {|
module worker;

var handled: int = 0;

proc main() {
  var j: int;
  mh_init();
  while (true) {
    R: mh_read("in", j);
    handled = handled + 1;
    sleep(2);
    mh_write("done", j * j);
  }
}
|}

let collector_source =
  {|
module collector;

var received: int = 0;

proc main() {
  var r: int;
  mh_init();
  while (true) {
    mh_read("done", r);
    received = received + 1;
    print("result ", r);
  }
}
|}

let sources =
  [ ("feeder", feeder_source);
    ("dispatcher", dispatcher_source);
    ("worker", worker_source);
    ("collector", collector_source) ]

let hosts =
  [ { Bus.host_name = "hostA"; arch = Dr_state.Arch.x86_64 };
    { Bus.host_name = "hostB"; arch = Dr_state.Arch.arm32 };
    { Bus.host_name = "hostC"; arch = Dr_state.Arch.sparc32 } ]

let load () =
  match Dynrecon.System.load ~mil ~sources () with
  | Ok system -> system
  | Error e -> failwith ("farm: load failed: " ^ e)

let start ?params system =
  match
    Dynrecon.System.start system ~app:"farm" ~hosts ?params ~default_host:"hostA"
      ()
  with
  | Ok bus -> bus
  | Error e -> failwith ("farm: start failed: " ^ e)

let dispatcher_instance bus =
  (* the dispatcher may have been migrated under a new name *)
  List.find_opt
    (fun inst -> Bus.instance_module bus ~instance:inst = Some "dispatcher")
    (Bus.instances bus)

let scale_out bus ~slot ~host =
  if slot < 2 || slot > 3 then Error "only slots 2 and 3 can be added"
  else
    match dispatcher_instance bus with
    | None -> Error "no dispatcher"
    | Some dispatcher -> (
      let worker = Printf.sprintf "w%d" slot in
      match Bus.spawn bus ~instance:worker ~module_name:"worker" ~host () with
      | Error e -> Error e
      | Ok () ->
        Bus.add_route bus
          ~src:(dispatcher, Printf.sprintf "out%d" slot)
          ~dst:(worker, "in");
        Bus.add_route bus ~src:(worker, "done") ~dst:("collector", "done");
        (* slots fill in order, so the new active count equals the slot *)
        Bus.inject bus ~dst:(dispatcher, "ctl") (Dr_state.Value.Vint slot);
        Ok worker)

let scale_in bus =
  match dispatcher_instance bus with
  | None -> ()
  | Some dispatcher ->
    (* conservative: drop back to 1 active slot; queued jobs at retired
       workers still drain because their routes stay up *)
    Bus.inject bus ~dst:(dispatcher, "ctl") (Dr_state.Value.Vint 1)

(* The occupied worker slots form a natural drain group: they serve the
   same jobs, so a draining worker's routed traffic can be absorbed by
   its siblings. Registers the group and returns the members. *)
let worker_drain_group bus =
  let workers =
    List.sort String.compare
      (List.filter
         (fun inst -> Bus.instance_module bus ~instance:inst = Some "worker")
         (Bus.instances bus))
  in
  Bus.set_drain_group bus ~members:workers;
  workers

let results bus =
  List.filter_map
    (fun line ->
      try Scanf.sscanf line "result %d" (fun v -> Some v)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    (Bus.outputs bus ~instance:"collector")

let expected_results = List.init job_count (fun i -> (i + 1) * (i + 1))
