let capacity = 64

let mil =
  {|
module store {
  source = "./store.exe";
  use interface set pattern {integer};
  server interface get pattern {integer} returns {integer};
  reconfiguration point R;
}

module client {
  source = "./client.exe";
  define interface set pattern {integer};
  client interface get pattern {integer} accepts {integer};
}

application kv {
  instance store on "hostA";
  instance client on "hostB";
  bind "client set" "store set";
  bind "client get" "store get";
}
|}

(* The table is a heap array reached from a global; a second global
   pointer into the same block exercises aliasing across capture. *)
let store_source =
  Printf.sprintf
    {|
module store;

var table: int[];
var cursor: int*;
var ready: bool = false;

proc apply_set(cmd: int) {
  table[cmd / 1000] = cmd %% 1000;
  cursor = &table[cmd / 1000];
}

proc main() {
  var cmd: int;
  var k: int;
  mh_init();
  if (!ready) {
    table = alloc_int(%d);
    cursor = &table[0];
    ready = true;
  }
  while (true) {
    while (mh_query("set")) {
      mh_read("set", cmd);
      apply_set(cmd);
    }
    while (mh_query("get")) {
      R: mh_read("get", k);
      mh_write("get", table[k]);
    }
    sleep(1);
  }
}
|}
    capacity

(* Keys cycle below the store's capacity; the value stored under key k
   is always k*7, so every reply is checkable: v = k*7. *)
let client_source =
  {|
module client;

proc main() {
  var i: int;
  var k: int;
  var v: int;
  mh_init();
  i = 1;
  while (true) {
    k = i % 60;
    mh_write("set", k * 1000 + k * 7);
    if (i % 3 == 0) {
      mh_write("get", k);
      mh_read("get", v);
      print("got ", k, " -> ", v);
    }
    i = i + 1;
    sleep(3);
  }
}
|}

let sources = [ ("store", store_source); ("client", client_source) ]

let hosts =
  [ { Dr_bus.Bus.host_name = "hostA"; arch = Dr_state.Arch.x86_64 };
    { Dr_bus.Bus.host_name = "hostB"; arch = Dr_state.Arch.arm32 };
    { Dr_bus.Bus.host_name = "hostC"; arch = Dr_state.Arch.sparc32 } ]

let load () =
  match Dynrecon.System.load ~mil ~sources () with
  | Ok system -> system
  | Error e -> failwith ("kvstore: load failed: " ^ e)

let start ?params system =
  match
    Dynrecon.System.start system ~app:"kv" ~hosts ?params ~default_host:"hostA"
      ()
  with
  | Ok bus -> bus
  | Error e -> failwith ("kvstore: start failed: " ^ e)

let client_got bus =
  List.filter_map
    (fun line ->
      try Scanf.sscanf line "got %d -> %d" (fun k v -> Some (k, v))
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    (Dr_bus.Bus.outputs bus ~instance:"client")

(* ================================================================== *)
(* Replica-group variant: N interchangeable stores behind drain-aware
   routing, the workload of the rolling-replacement controller.        *)
(* ================================================================== *)

module Replica = struct
  let capacity = 512 (* keys are encoded modulo 500 *)

  (* Requests and replies travel as single integers:
       request = id * 1000 + op * 500 + key   (op 0 = get, 1 = set)
       reply   = id * 1000 + value            (value < 1000)
     The stored value is a pure function of the key ((key*7) mod 251),
     and a get of a never-set key answers the same function — so every
     reply is checkable no matter which sibling absorbed the redirected
     request, and no matter how writes interleave with a replacement. *)
  let encode_request ~id ~op ~key = (id * 1000) + (op * 500) + key
  let decode_reply r = (r / 1000, r mod 1000)
  let expected_get ~key = key * 7 mod 251
  let set_ack = 507

  let serving_body =
    {|
    while (mh_query("req")) {
      mh_read("req", r);
      id = r / 1000;
      op = (r % 1000) / 500;
      k = r % 500;
      if (op == 1) {
        table[k] = (k * 7) % 251;
        v = 507;
      } else {
        v = table[k];
        if (v == 0) { v = (k * 7) % 251; }
      }
      mh_write("out", id * 1000 + v);
    }
|}

  (* The reconfiguration point sits on the idle-loop sleep, not inside
     the serving loop: a drained replica never re-enters the inner
     [while (mh_query(...))], so a point there would never be passed
     and a post-drain replace would hang until its deadline. *)
  let store_body ~module_name ~body =
    Printf.sprintf
      {|
module %s;

var table: int[];
var ready: bool = false;

proc main() {
  var r: int;
  var id: int;
  var op: int;
  var k: int;
  var v: int;
  mh_init();
  if (!ready) {
    table = alloc_int(%d);
    ready = true;
  }
  while (true) {
%s    R: sleep(1);
  }
}
|}
      module_name capacity body

  let rstore_source = store_body ~module_name:"rstore" ~body:serving_body
  let rstorev2_source = store_body ~module_name:"rstorev2" ~body:serving_body

  (* The deliberately-bad canary build: same interfaces, same globals
     (so state transfer round-trips), but every reply carries a value
     no request can validate. *)
  let rstorebad_source =
    store_body ~module_name:"rstorebad"
      ~body:
        {|
    while (mh_query("req")) {
      mh_read("req", r);
      id = r / 1000;
      mh_write("out", id * 1000 + 666);
    }
|}

  (* Replies converge on a sink that never reads; the load generator
     drains its queue directly. *)
  let rsink_source = {|
module rsink;

proc main() {
  mh_init();
  while (true) {
    sleep(100);
  }
}
|}

  let store_spec name =
    Printf.sprintf
      {|
module %s {
  source = "./%s.exe";
  use interface req pattern {integer};
  define interface out pattern {integer};
  reconfiguration point R;
}
|}
      name name

  let slot i = Printf.sprintf "s%d" i
  let host i = Printf.sprintf "rh%d" i
  let sink = ("rsink", "out")

  let mil ~n =
    let b = Buffer.create 1024 in
    List.iter
      (fun m -> Buffer.add_string b (store_spec m))
      [ "rstore"; "rstorev2"; "rstorebad" ];
    Buffer.add_string b
      {|
module rsink {
  source = "./rsink.exe";
  use interface out pattern {integer};
}

application rgroup {
|};
    for i = 1 to n do
      Buffer.add_string b
        (Printf.sprintf "  instance %s = rstore on \"%s\";\n" (slot i) (host i))
    done;
    Buffer.add_string b "  instance rsink on \"rhsink\";\n";
    for i = 1 to n do
      Buffer.add_string b
        (Printf.sprintf "  bind \"%s out\" \"rsink out\";\n" (slot i))
    done;
    Buffer.add_string b "}\n";
    Buffer.contents b

  let sources =
    [ ("rstore", rstore_source);
      ("rstorev2", rstorev2_source);
      ("rstorebad", rstorebad_source);
      ("rsink", rsink_source) ]

  (* Every replica host shares one architecture, so a moved image is
     decoded in the layout it was encoded in: nothing to translate. *)
  let hosts ~n =
    List.init n (fun i ->
        { Dr_bus.Bus.host_name = host (i + 1); arch = Dr_state.Arch.x86_64 })
    @ [ { Dr_bus.Bus.host_name = "rhsink"; arch = Dr_state.Arch.x86_64 } ]

  let group ~n = List.init n (fun i -> (slot (i + 1), slot (i + 1)))

  let load ~n =
    match Dynrecon.System.load ~mil:(mil ~n) ~sources () with
    | Ok system -> system
    | Error e -> failwith ("kvstore replica group: load failed: " ^ e)

  let start ?params ~n system =
    match
      Dynrecon.System.start system ~app:"rgroup" ~hosts:(hosts ~n) ?params
        ~default_host:(host 1) ()
    with
    | Ok bus -> bus
    | Error e -> failwith ("kvstore replica group: start failed: " ^ e)
end

(* ------------------------------------------------------------------ *)
(* Seeded open-loop traffic over a replica group.                      *)
(* ------------------------------------------------------------------ *)

module Loadgen = struct
  module Bus = Dr_bus.Bus
  module Engine = Dr_sim.Engine
  module Metrics = Dr_obs.Metrics
  module Rolling = Dr_reconfig.Rolling

  type conf = {
    lc_rate : float;
    lc_read_ratio : float;
    lc_hot_ratio : float;
    lc_hot_keys : int;
    lc_keys : int;
    lc_seed : int;
    lc_duration : float;
  }

  let default_conf =
    { lc_rate = 4.0;
      lc_read_ratio = 0.5;
      lc_hot_ratio = 0.8;
      lc_hot_keys = 8;
      lc_keys = 100;
      lc_seed = 11;
      lc_duration = 60.0 }

  type pending = { p_sent : float; p_slot : string; p_expect : int }

  type t = {
    bus : Bus.t;
    conf : conf;
    metrics : Metrics.t;
    sink : Bus.endpoint;
    slots : string array;
    targets : (string, string) Hashtbl.t;  (* slot -> current instance *)
    prng : Dr_sim.Prng.t;
    pending : (int, pending) Hashtbl.t;
    mutable next_id : int;
    mutable sent : int;
    mutable shed : int;
    mutable answered : int;
    mutable wrong : int;
    mutable duplicated : int;
    mutable stray : int;
    mutable issuing : bool;
    mutable polling : bool;
    mutable stop_at : float;
  }

  let labels slot = [ ("slot", slot) ]

  (* Replies ride the routed path into the sink's queue; the generator
     owns the sink, so draining it here is the measurement point. *)
  let drain_replies t =
    List.iter
      (fun v ->
        match v with
        | Dr_state.Value.Vint r -> (
          let id, value = Replica.decode_reply r in
          match Hashtbl.find_opt t.pending id with
          | None ->
            (* answered before: the fault plane duplicated it somewhere
               the reliable layer didn't cover, or it's not ours *)
            t.duplicated <- t.duplicated + 1
          | Some p ->
            Hashtbl.remove t.pending id;
            t.answered <- t.answered + 1;
            let lat = Bus.now t.bus -. p.p_sent in
            Metrics.observe t.metrics ~labels:(labels p.p_slot)
              Rolling.latency_metric lat;
            Metrics.incr t.metrics ~labels:(labels p.p_slot)
              Rolling.answered_metric;
            if value <> p.p_expect then begin
              t.wrong <- t.wrong + 1;
              Metrics.incr t.metrics ~labels:(labels p.p_slot)
                Rolling.error_metric
            end)
        | _ -> t.stray <- t.stray + 1)
      (Bus.take_queue t.bus t.sink)

  let send t =
    let slot = t.slots.(Dr_sim.Prng.int t.prng (Array.length t.slots)) in
    let target =
      Option.value ~default:slot (Hashtbl.find_opt t.targets slot)
    in
    match Bus.resolve_drain t.bus ~instance:target with
    | None ->
      (* nowhere alive to admit it: shed explicitly, never silently.
         Shed is a disposition of a sent request, so the ledger
         invariant sent = answered + shed + inflight always holds. *)
      t.sent <- t.sent + 1;
      t.shed <- t.shed + 1;
      Metrics.incr t.metrics ~labels:(labels slot) Rolling.shed_metric
    | Some instance ->
      let key =
        if
          Dr_sim.Prng.float t.prng 1.0 < t.conf.lc_hot_ratio
          && t.conf.lc_hot_keys > 0
        then Dr_sim.Prng.int t.prng t.conf.lc_hot_keys
        else Dr_sim.Prng.int t.prng (max 1 t.conf.lc_keys)
      in
      let op =
        if Dr_sim.Prng.float t.prng 1.0 < t.conf.lc_read_ratio then 0 else 1
      in
      let id = t.next_id in
      t.next_id <- id + 1;
      let expect =
        if op = 0 then Replica.expected_get ~key else Replica.set_ack
      in
      Hashtbl.replace t.pending id
        { p_sent = Bus.now t.bus; p_slot = slot; p_expect = expect };
      t.sent <- t.sent + 1;
      Bus.inject t.bus
        ~dst:(instance, "req")
        (Dr_state.Value.Vint (Replica.encode_request ~id ~op ~key))

  let rec issue_tick t () =
    if t.issuing then begin
      if Bus.now t.bus < t.stop_at then begin
        send t;
        Engine.schedule (Bus.engine t.bus) ~delay:(1.0 /. t.conf.lc_rate)
          (issue_tick t)
      end
      else t.issuing <- false
    end

  let rec poll_tick t () =
    if t.polling then begin
      drain_replies t;
      (* keep polling while traffic is in flight, then let the engine
         run dry so drivers' [run ~until] bounds still terminate *)
      if t.issuing || Hashtbl.length t.pending > 0 then
        Engine.schedule (Bus.engine t.bus) ~delay:0.25 (poll_tick t)
      else t.polling <- false
    end

  let start bus conf ~slots =
    if not (conf.lc_rate > 0.0 && Float.is_finite conf.lc_rate) then
      invalid_arg "Loadgen.start: rate must be positive and finite";
    let metrics =
      match Bus.metrics bus with
      | Some m -> m
      | None ->
        let m = Metrics.create () in
        Bus.set_metrics bus m;
        m
    in
    let t =
      { bus; conf; metrics;
        sink = Replica.sink;
        slots = Array.of_list (List.map fst slots);
        targets = Hashtbl.create 8;
        prng = Dr_sim.Prng.create ~seed:conf.lc_seed;
        pending = Hashtbl.create 64;
        next_id = 1;
        sent = 0; shed = 0; answered = 0; wrong = 0; duplicated = 0;
        stray = 0;
        issuing = true;
        polling = true;
        stop_at = Bus.now bus +. conf.lc_duration }
    in
    List.iter (fun (slot, inst) -> Hashtbl.replace t.targets slot inst) slots;
    Engine.schedule (Bus.engine bus) ~delay:(1.0 /. conf.lc_rate)
      (issue_tick t);
    Engine.schedule (Bus.engine bus) ~delay:0.25 (poll_tick t);
    t

  let retarget t ~slot ~instance = Hashtbl.replace t.targets slot instance

  let stop t =
    t.issuing <- false;
    drain_replies t

  type stats = {
    st_sent : int;
    st_answered : int;
    st_shed : int;
    st_wrong : int;
    st_duplicated : int;
    st_stray : int;
    st_inflight : int;  (* sent, unanswered, not shed *)
  }

  let stats t =
    drain_replies t;
    { st_sent = t.sent;
      st_answered = t.answered;
      st_shed = t.shed;
      st_wrong = t.wrong;
      st_duplicated = t.duplicated;
      st_stray = t.stray;
      st_inflight = Hashtbl.length t.pending }
end
