module Bus = Dr_bus.Bus

let mil =
  {|
module member {
  source = "./member.exe";
  use interface in pattern {integer};
  define interface out pattern {integer};
  reconfiguration point R;
}

module tap {
  source = "./tap.exe";
  use interface in pattern {integer};
}

application ring {
  instance a = member on "hostA";
  instance b = member on "hostA";
  instance c = member on "hostB";
  bind "a out" "b in";
  bind "b out" "c in";
  bind "c out" "a in";
}
|}

let member_source =
  {|
module member;

var passes: int = 0;

proc main() {
  var token: int;
  mh_init();
  while (true) {
    R: mh_read("in", token);
    passes = passes + 1;
    token = token + 1;
    sleep(1);
    mh_write("out", token);
  }
}
|}

(* The tap observes every pass: each member's out fans out to the next
   member AND to the tap, so the tap sees the full token history. *)
let tap_source =
  {|
module tap;

var seen: int = 0;

proc main() {
  var t: int;
  mh_init();
  while (true) {
    mh_read("in", t);
    seen = seen + 1;
    print(t);
  }
}
|}

let sources = [ ("member", member_source); ("tap", tap_source) ]

let hosts =
  [ { Bus.host_name = "hostA"; arch = Dr_state.Arch.x86_64 };
    { Bus.host_name = "hostB"; arch = Dr_state.Arch.sparc32 };
    { Bus.host_name = "hostC"; arch = Dr_state.Arch.m68k } ]

let load () =
  match Dynrecon.System.load ~mil ~sources () with
  | Ok system -> system
  | Error e -> failwith ("ring: load failed: " ^ e)

let start ?params system =
  match
    Dynrecon.System.start system ~app:"ring" ~hosts ?params
      ~default_host:"hostA" ()
  with
  | Ok bus ->
    (match Bus.spawn bus ~instance:"tap" ~module_name:"tap" ~host:"hostA" () with
    | Ok () -> ()
    | Error e -> failwith ("ring: tap: " ^ e));
    List.iter
      (fun m -> Bus.add_route bus ~src:(m, "out") ~dst:("tap", "in"))
      [ "a"; "b"; "c" ];
    Bus.inject bus ~dst:("a", "in") (Dr_state.Value.Vint 0);
    bus
  | Error e -> failwith ("ring: start failed: " ^ e)

(* ------------------------------------------------------- large rings *)

(* A generated N-member ring (no tap) for the bench scaling suite: the
   same member module, instances m0..m(n-1) alternating across hosts,
   each bound to its successor. *)
let large_mil ~n =
  let buf = Buffer.create (256 + (n * 64)) in
  Buffer.add_string buf
    {|module member {
  source = "./member.exe";
  use interface in pattern {integer};
  define interface out pattern {integer};
  reconfiguration point R;
}

application ring {
|};
  for i = 0 to n - 1 do
    let host = if i mod 2 = 0 then "hostA" else "hostB" in
    Buffer.add_string buf (Printf.sprintf "  instance m%d = member on %S;\n" i host)
  done;
  for i = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  bind \"m%d out\" \"m%d in\";\n" i ((i + 1) mod n))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let member_name i = Printf.sprintf "m%d" i

let members ~n = List.init n member_name

let load_large ~n =
  match
    Dynrecon.System.load ~mil:(large_mil ~n)
      ~sources:[ ("member", member_source) ]
      ()
  with
  | Ok system -> system
  | Error e -> failwith ("ring: large load failed: " ^ e)

let start_large ?params ?(tokens = 1) system ~n =
  match
    Dynrecon.System.start system ~app:"ring" ~hosts ?params
      ~default_host:"hostA" ()
  with
  | Ok bus ->
    let tokens = max 1 (min tokens n) in
    let stride = n / tokens in
    for k = 0 to tokens - 1 do
      Bus.inject bus
        ~dst:(member_name (k * stride), "in")
        (Dr_state.Value.Vint (k * 1_000_000))
    done;
    bus
  | Error e -> failwith ("ring: large start failed: " ^ e)

(* ------------------------------------------------------------- chaos *)

module Faults = Dr_bus.Faults

let chaos_plan ?(loss = 0.05) ?(dup = 0.0) ?(jitter = 0.0) ?host_crash
    ?host_recover () =
  let events =
    (match host_crash with
    | None -> []
    | Some (h, t) -> [ (t, Faults.Host_crash h) ])
    @
    match (host_crash, host_recover) with
    | Some (h, _), Some t -> [ (t, Faults.Host_recover h) ]
    | _ -> []
  in
  Faults.plan ~events ~rules:[ Faults.rule ~loss ~dup () ] ~jitter ()

let start_chaos ?params ?(seed = 1) ?plan system =
  let bus = start ?params system in
  Faults.install bus ~seed (Option.value ~default:(chaos_plan ()) plan);
  bus

let passes bus ~instance =
  match Bus.machine bus ~instance with
  | Some m -> (
    match Dr_interp.Machine.read_global m "passes" with
    | Some (Dr_state.Value.Vint n) -> n
    | _ -> -1)
  | None -> -1

let total_passes bus ~instances =
  List.fold_left
    (fun acc instance -> acc + max 0 (passes bus ~instance))
    0 instances

let insert_member bus ~instance ~host ~after ~before =
  match Bus.spawn bus ~instance ~module_name:"member" ~host () with
  | Error _ as e -> e
  | Ok () ->
    Bus.del_route bus ~src:(after, "out") ~dst:(before, "in");
    Bus.add_route bus ~src:(after, "out") ~dst:(instance, "in");
    Bus.add_route bus ~src:(instance, "out") ~dst:(before, "in");
    Bus.add_route bus ~src:(instance, "out") ~dst:("tap", "in");
    Ok ()

let bypass_member bus ~instance ~pred ~succ =
  Bus.del_route bus ~src:(pred, "out") ~dst:(instance, "in");
  Bus.add_route bus ~src:(pred, "out") ~dst:(succ, "in")
  (* the bypassed member's own out-route stays: a token it holds or has
     queued still drains to [succ] *)

let tap_history bus =
  List.filter_map int_of_string_opt (Bus.outputs bus ~instance:"tap")

let history_consecutive history =
  let rec check expected = function
    | [] -> true
    | v :: rest -> v = expected && check (expected + 1) rest
  in
  check 1 history

(* Exactly-once as a multiset property: every token 1..n observed once,
   none missing, none twice. Arrival *order* is deliberately not
   checked — under the reliable layer a retransmitted token can
   overtake a fresh one on a different member->tap channel, which is
   reordering, not loss or duplication. *)
let history_exactly_once history =
  let rec check expected = function
    | [] -> true
    | v :: rest -> v = expected && check (expected + 1) rest
  in
  check 1 (List.sort compare history)
