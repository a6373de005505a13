(* The model-checking workload: the smallest configuration that still
   exercises every protocol the monitors watch.

   A [pinger] fires [k] requests at a [cell] and then blocks reading the
   replies; the cell folds each request into two globals ([count],
   [acc]) and answers with a reply that encodes its processing count.
   Both halt once the work is done, so fault-free executions are finite
   by construction, and the only infinite behaviours are protocol loops
   (retransmission, idle sleep-wake) that the explorer's fingerprint
   dedup closes off.

   Soundness of the state fingerprint leans on one property of these
   programs: they print on EVERY state-changing step (each send, each
   processed request). The print history is part of the fingerprint, so
   two states with equal fingerprints agree on everything a monitor can
   observe. Keep that invariant when editing the sources.

   [cellv2] is byte-identical to [cell] apart from the module name: the
   point of the replacement under test is the protocol, not the upgrade
   payload, and an identical successor makes the no-lost-state monitor's
   expectation exact (the count sequence across the family must be
   1,2,3,…with no resets and no skips). *)

let cell_body : (int -> string, unit, string) format =
  {|
var count: int = 0;
var acc: int = 0;

proc main() {
  var r: int;
  mh_init();
  while (count < %d) {
    while (mh_query("req")) {
      mh_read("req", r);
      count = count + 1;
      acc = acc + r;
      print("cell ", count, " ", acc);
      mh_write("out", count * 100 + r);
    }
    R: sleep(1);
  }
}
|}

let cell_source ~k ~module_name =
  Printf.sprintf "module %s;\n%s" module_name (Printf.sprintf cell_body k)

let pinger_source ~k =
  Printf.sprintf
    {|
module pinger;

proc main() {
  var i: int;
  var r: int;
  mh_init();
  i = 0;
  while (i < %d) {
    i = i + 1;
    print("send ", i);
    mh_write("req", i);
  }
  i = 0;
  while (i < %d) {
    mh_read("out", r);
    print("got ", r);
    i = i + 1;
  }
}
|}
    k k

(* Two cells fed by one pinger: the drain-group scenario. The pinger
   alternates requests between the two, then collects all replies from
   the shared [out] fan-in. *)
let pinger2_source ~k =
  Printf.sprintf
    {|
module pinger2;

proc main() {
  var i: int;
  var r: int;
  mh_init();
  i = 0;
  while (i < %d) {
    i = i + 1;
    print("send ", i);
    mh_write("req1", i);
    print("send ", %d + i);
    mh_write("req2", %d + i);
  }
  i = 0;
  while (i < 2 * %d) {
    mh_read("out", r);
    print("got ", r);
    i = i + 1;
  }
}
|}
    k k k k

let cell_module ~name =
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

let single_mil =
  Printf.sprintf
    {|
%s
%s
module pinger {
  source = "./pinger.exe";
  define interface req pattern {integer};
  use interface out pattern {integer};
}

application mc {
  instance c1 = cell on "mh1";
  instance pinger on "mh2";
  bind "pinger req" "c1 req";
  bind "c1 out" "pinger out";
}
|}
    (cell_module ~name:"cell")
    (cell_module ~name:"cellv2")

let pair_mil =
  Printf.sprintf
    {|
%s
%s
module pinger2 {
  source = "./pinger2.exe";
  define interface req1 pattern {integer};
  define interface req2 pattern {integer};
  use interface out pattern {integer};
}

application mc {
  instance c1 = cell on "mh1";
  instance c2 = cell on "mh1";
  instance pinger2 on "mh2";
  bind "pinger2 req1" "c1 req";
  bind "pinger2 req2" "c2 req";
  bind "c1 out" "pinger2 out";
  bind "c2 out" "pinger2 out";
}
|}
    (cell_module ~name:"cell")
    (cell_module ~name:"cellv2")

let hosts =
  [ { Dr_bus.Bus.host_name = "mh1"; arch = Dr_state.Arch.x86_64 };
    { Dr_bus.Bus.host_name = "mh2"; arch = Dr_state.Arch.x86_64 } ]

(* Parse, typecheck and instrument the workload: once per checked
   configuration, never per explored execution. The result holds only
   immutable ASTs, specifications and prepared programs, so every
   execution can boot from it. *)
let load ~two_cells ~k =
  let mil = if two_cells then pair_mil else single_mil in
  let sources =
    [ ("cell", cell_source ~k ~module_name:"cell");
      ("cellv2", cell_source ~k ~module_name:"cellv2") ]
    @
    if two_cells then [ ("pinger2", pinger2_source ~k) ]
    else [ ("pinger", pinger_source ~k) ]
  in
  match Dynrecon.System.load ~mil ~sources () with
  | Ok system -> system
  | Error e -> failwith ("mc workload: load failed: " ^ e)

(* Boot a fresh simulation of a loaded workload. Assemble the bus by
   hand rather than through [System.start]: [Engine.mc_enable] must run
   before the first spawn parks a quantum in the event heap, and
   [System.start] creates the bus internally. *)
let boot ?params (system : Dynrecon.System.t) =
  let bus = Dr_bus.Bus.create ?params ~hosts () in
  Dr_sim.Engine.mc_enable (Dr_bus.Bus.engine bus);
  List.iter
    (fun lm ->
      match
        Dr_bus.Bus.register_program bus (Dynrecon.System.deployed_program lm)
      with
      | Ok () -> ()
      | Error e ->
        failwith
          (Printf.sprintf "mc workload: register %s: %s"
             lm.Dynrecon.System.lm_name e))
    system.Dynrecon.System.modules;
  (match
     Dr_bus.Deploy.deploy bus ~config:system.Dynrecon.System.config ~app:"mc"
       ~default_host:"mh1"
   with
  | Ok () -> ()
  | Error e -> failwith ("mc workload: deploy failed: " ^ e));
  bus

(* Globals the fingerprint must read from cell-family machines. *)
let fingerprint_globals = [ "count"; "acc" ]

(* Parse the cell family's per-request prints out of trace "print"
   entries: "c1: cell 3 6" -> (3, 6). *)
let parse_cell_print detail =
  match String.index_opt detail ':' with
  | None -> None
  | Some i -> (
    let line = String.sub detail (i + 1) (String.length detail - i - 1) in
    try Scanf.sscanf line " cell %d %d" (fun n a -> Some (n, a))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
