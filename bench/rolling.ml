(* Rolling-replacement suite: autonomous waves under live traffic.

   Sweeps replica-group size x traffic rate x fault plan. Every trial
   deploys a Kvstore.Replica group, drives it with the seeded open-loop
   load generator, and runs a Rolling wave while the traffic flows:

   - clean and lossy cells (loss 0-20%, masked by the reliable layer on
     the reply routes) upgrade the whole group to the v2 build and must
     commit with every slot upgraded; a lossless cell (the reliable
     layer over a 0% loss plan) must also retransmit nothing;
   - kill cells crash an old-generation member mid-wave; a supervisor
     restarts it fenced and the wave must still upgrade every slot
     exactly once;
   - bad-canary cells roll the group towards the deliberately-bad build:
     every attempted canary must be caught by the SLO gates and rolled
     back, and the wave must abort with the fleet on its original build;
   - ctlcrash cells kill the controller at a chosen control-log append
     index mid-wave; [Rolling.recover] must bring the roster back to a
     consistent state and traffic must keep flowing cleanly.

   The universal gate on every cell is the exactly-once-or-shed
   accounting identity: sent = answered + shed, nothing in flight,
   nothing duplicated. Each cell also reports the reliable layer's
   retransmissions and suppressed duplicates. Summarised in
   BENCH_rolling.json.
   Run with: dune exec bench/main.exe -- rolling *)

module Bus = Dr_bus.Bus
module Faults = Dr_bus.Faults
module Reliable = Dr_bus.Reliable
module Roll = Dr_reconfig.Rolling
module Supervisor = Dr_reconfig.Supervisor
module Recovery = Dr_reconfig.Recovery
module Storage = Dr_wal.Storage
module Wal = Dr_wal.Wal
module Kv = Dr_workloads.Kvstore

let ok_exn = function Ok v -> v | Error e -> failwith e

type fault =
  | Clean
  | Loss of float  (* reply-route message loss, reliable layer enabled *)
  | Kill  (* crash an old-generation replica mid-wave, supervised *)
  | Bad_canary  (* roll towards rstorebad: every canary must fail *)
  | Ctl_crash of int  (* controller dies at this control-log append *)

let fault_name = function
  | Clean -> "clean"
  | Loss p -> Printf.sprintf "loss %.0f%%" (100.0 *. p)
  | Kill -> "kill mid-wave"
  | Bad_canary -> "bad canary"
  | Ctl_crash n -> Printf.sprintf "ctlcrash@%d" n

type row = {
  r_fault : string;
  r_n : int;
  r_rate : float;
  r_sent : int;
  r_answered : int;
  r_shed : int;
  r_wrong : int;
  r_duplicated : int;
  r_inflight : int;
  r_retx : int;  (* reliable-layer retransmissions *)
  r_dups : int;  (* duplicate frames the receivers suppressed *)
  r_committed : bool;
  r_rollbacks : int;  (* canary rollbacks across the wave *)
  r_restarts : int;  (* supervisor restarts (kill cells) *)
  r_crashed : bool;  (* the armed controller crash fired *)
  r_recovered : bool;  (* Rolling.recover succeeded, roster consistent *)
  r_ok : bool;
  r_detail : string;  (* first failed gate, "" when ok *)
}

(* The live instances serving [slot]: the original name, or a wave /
   rollback generation [slot@wid.gen]. A consistent roster has exactly
   one per slot. *)
let serving bus ~slot =
  let pfx = slot ^ "@" in
  let plen = String.length pfx in
  List.filter
    (fun inst ->
      inst = slot
      || (String.length inst >= plen && String.sub inst 0 plen = pfx))
    (Bus.instances bus)

let run_cell ~n ~rate ~fault ~seed =
  let system = Kv.Replica.load ~n in
  let bus = Kv.Replica.start ~n system in
  let mem = Storage.memory () in
  Bus.set_wal bus (ok_exn (Wal.create (Storage.storage_of_mem mem)));
  let group = Kv.Replica.group ~n in
  let roster = Hashtbl.create 8 in
  List.iter (fun (slot, inst) -> Hashtbl.replace roster slot inst) group;
  (* fault plane *)
  let reliable =
    match fault with
    | Clean | Bad_canary -> None
    | Loss p ->
      Faults.install bus ~seed
        (Faults.plan ~rules:[ Faults.rule ~loss:p () ] ());
      (* replies ride routes and the loss hook; mask it end-to-end *)
      let r = Reliable.attach bus in
      Reliable.enable_all r;
      Some r
    | Kill ->
      (* kill the LAST slot's original generation while the wave is
         still busy with the first: its old generation is live when this
         fires *)
      let victim = Kv.Replica.slot n in
      Faults.install bus ~seed
        (Faults.plan ~events:[ (13.0, Faults.Process_crash victim) ] ());
      None
    | Ctl_crash i ->
      Faults.install bus ~seed (Faults.plan ~ctl_crash:i ());
      None
  in
  let supervisor =
    match fault with
    | Kill -> Some (Supervisor.start bus ~watch:(List.map snd group) ())
    | _ -> None
  in
  let lg =
    Kv.Loadgen.start bus
      { Kv.Loadgen.default_conf with
        lc_rate = rate;
        lc_seed = seed;
        lc_duration = 500.0 }
      ~slots:group
  in
  Bus.run ~until:10.0 bus;
  let target = match fault with Bad_canary -> "rstorebad" | _ -> "rstorev2" in
  let cfg =
    { (Roll.default_config ~target) with
      rc_drain_timeout = 6.0;
      rc_canary_window = 8.0;
      rc_backoff = 1.0;
      rc_retries = (match fault with Bad_canary -> 2 | _ -> 3);
      (* under injected loss, retransmission tails are environment, not
         build quality — lifting the latency gate keeps the error-rate
         and shed gates in charge of the judgement *)
      rc_slo =
        (match fault with
        | Loss _ -> { (Roll.default_config ~target).rc_slo with slo_p99 = None }
        | _ -> (Roll.default_config ~target).rc_slo) }
  in
  let on_retarget ~slot ~instance =
    Hashtbl.replace roster slot instance;
    Kv.Loadgen.retarget lg ~slot ~instance
  in
  let wave = Roll.run bus cfg ~group ?supervisor ~on_retarget () in
  let crashed = Bus.controller_down bus in
  (* ctlcrash cells: the controller's memory is gone — discard the
     unsynced storage tail, reopen the log, recover, and point the load
     generator at whatever roster recovery settled on *)
  let recovered, roster_consistent =
    if not crashed then (false, true)
    else begin
      Storage.crash mem;
      Bus.set_wal bus (ok_exn (Wal.create (Storage.storage_of_mem mem)));
      match Roll.recover bus with
      | Error _ -> (false, false)
      | Ok (_report, _waves) ->
        let consistent = ref true in
        List.iter
          (fun (slot, _) ->
            match serving bus ~slot with
            | [ inst ] ->
              Hashtbl.replace roster slot inst;
              Kv.Loadgen.retarget lg ~slot ~instance:inst
            | _ -> consistent := false)
          group;
        (* the fleet must keep serving after recovery *)
        if !consistent then Bus.run ~until:(Bus.now bus +. 15.0) bus;
        (true, !consistent)
    end
  in
  Kv.Loadgen.stop lg;
  (* adaptive grace: lossy replies may need several retransmission
     rounds (rto 4.0 doubling to 16.0, so one chain can exceed any
     fixed window) — drive until the ledger closes, bounded *)
  Bus.run ~until:(Bus.now bus +. 40.0) bus;
  let grace_deadline = Bus.now bus +. 120.0 in
  while
    (Kv.Loadgen.stats lg).st_inflight > 0 && Bus.now bus < grace_deadline
  do
    Bus.run ~until:(Bus.now bus +. 10.0) bus
  done;
  let s = Kv.Loadgen.stats lg in
  let retx, dups =
    match reliable with
    | None -> (0, 0)
    | Some r ->
      ( Reliable.total_retx r,
        List.fold_left
          (fun acc (c : Reliable.stats) -> acc + c.st_dups)
          0 (Reliable.stats r) )
  in
  let committed, rollbacks, outcomes_ok, any_rolled_back =
    match wave with
    | Error _ -> (false, 0, true, false)
    | Ok r ->
      ( r.Roll.rp_committed,
        List.fold_left
          (fun acc rr -> acc + rr.Roll.rr_rollbacks)
          0 r.Roll.rp_replicas,
        List.for_all
          (fun rr ->
            match rr.Roll.rr_outcome with
            | Roll.Upgraded _ -> fault <> Bad_canary
            | Roll.Rolled_back _ | Roll.Skipped -> fault = Bad_canary)
          r.Roll.rp_replicas,
        List.exists
          (fun rr ->
            match rr.Roll.rr_outcome with
            | Roll.Rolled_back _ -> true
            | _ -> false)
          r.Roll.rp_replicas )
  in
  let restarts =
    match supervisor with
    | None -> 0
    | Some sup -> List.length (Supervisor.restarts sup)
  in
  (* gates, most specific failure first *)
  let fail = ref "" in
  let gate name ok = if ok && !fail = "" then () else if !fail = "" then fail := name in
  gate "accounting" (s.st_sent = s.st_answered + s.st_shed && s.st_inflight = 0);
  gate "duplicates" (s.st_duplicated = 0 && s.st_stray = 0);
  (match fault with
  | Clean | Loss _ | Kill ->
    gate "not committed" committed;
    gate "wrong values" (s.st_wrong = 0);
    if fault = Loss 0.0 then gate "lossless retransmits" (retx = 0);
    if fault = Kill then begin
      gate "no supervisor restart" (restarts >= 1);
      gate "victim not upgraded"
        (match serving bus ~slot:(Kv.Replica.slot n) with
        | [ inst ] -> Bus.instance_module bus ~instance:inst = Some "rstorev2"
        | _ -> false)
    end
  | Bad_canary ->
    gate "bad build committed" (not committed);
    gate "canary not detected" (any_rolled_back && outcomes_ok);
    gate "fleet not restored"
      (List.for_all
         (fun (slot, _) ->
           match serving bus ~slot with
           | [ inst ] -> Bus.instance_module bus ~instance:inst = Some "rstore"
           | _ -> false)
         group)
  | Ctl_crash _ ->
    if crashed then begin
      gate "wave not aborted by crash" (Result.is_error wave);
      gate "recovery failed" recovered;
      gate "roster inconsistent" roster_consistent;
      gate "wrong values" (s.st_wrong = 0)
    end
    else begin
      (* crash index beyond the wave's appends: behaves like clean *)
      gate "not committed" committed;
      gate "wrong values" (s.st_wrong = 0)
    end);
  { r_fault = fault_name fault;
    r_n = n;
    r_rate = rate;
    r_sent = s.st_sent;
    r_answered = s.st_answered;
    r_shed = s.st_shed;
    r_wrong = s.st_wrong;
    r_duplicated = s.st_duplicated;
    r_inflight = s.st_inflight;
    r_retx = retx;
    r_dups = dups;
    r_committed = committed;
    r_rollbacks = rollbacks;
    r_restarts = restarts;
    r_crashed = crashed;
    r_recovered = recovered;
    r_ok = !fail = "";
    r_detail = !fail }

let json_of_row r =
  Json_out.(
    obj
      [ ("fault", str r.r_fault);
        ("replicas", int r.r_n);
        ("rate", float r.r_rate);
        ("sent", int r.r_sent);
        ("answered", int r.r_answered);
        ("shed", int r.r_shed);
        ("wrong", int r.r_wrong);
        ("duplicated", int r.r_duplicated);
        ("inflight", int r.r_inflight);
        ("retx", int r.r_retx);
        ("dups", int r.r_dups);
        ("committed", bool r.r_committed);
        ("canary_rollbacks", int r.r_rollbacks);
        ("supervisor_restarts", int r.r_restarts);
        ("ctl_crashed", bool r.r_crashed);
        ("recovered", bool r.r_recovered);
        ("ok", bool r.r_ok);
        ("detail", str r.r_detail) ])

let all ?(path = "BENCH_rolling.json") () =
  let cells =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun rate ->
            List.map
              (fun fault -> (n, rate, fault))
              [ Clean; Loss 0.05; Loss 0.10; Loss 0.20 ])
          [ 3.0; 6.0 ])
      [ 3; 5 ]
    @ [ (3, 3.0, Kill); (5, 6.0, Kill);
        (3, 3.0, Bad_canary); (5, 6.0, Bad_canary);
        (3, 3.0, Ctl_crash 2); (3, 3.0, Ctl_crash 7);
        (3, 3.0, Ctl_crash 12) ]
    (* last, so that every earlier cell keeps its seed *)
    @ List.concat_map
        (fun n -> List.map (fun rate -> (n, rate, Loss 0.0)) [ 3.0; 6.0 ])
        [ 3; 5 ]
  in
  print_newline ();
  print_endline "==============================================================";
  print_endline "Rolling: autonomous replacement waves under live traffic";
  print_endline
    "gate: sent = answered + shed, zero in flight, zero duplicated";
  print_endline "gate: a lossless reliable cell retransmits nothing";
  print_endline "==============================================================";
  Printf.printf "%-14s %2s %5s %6s %9s %5s %6s %4s %6s %6s %5s  %s\n" "fault"
    "n" "rate" "sent" "answered" "shed" "wrong" "rb" "retx" "dups" "ok"
    "detail";
  Printf.printf "%s\n" (String.make 92 '-');
  let rows = ref [] in
  let failures = ref 0 in
  List.iteri
    (fun i (n, rate, fault) ->
      let row = run_cell ~n ~rate ~fault ~seed:(11 + i) in
      rows := row :: !rows;
      if not row.r_ok then incr failures;
      Printf.printf "%-14s %2d %5.1f %6d %9d %5d %6d %4d %6d %6d %5s  %s\n"
        row.r_fault row.r_n row.r_rate row.r_sent row.r_answered row.r_shed
        row.r_wrong row.r_rollbacks row.r_retx row.r_dups
        (if row.r_ok then "yes" else "NO")
        row.r_detail)
    cells;
  Printf.printf "%s\n" (String.make 92 '-');
  Printf.printf "cells failed: %d of %d (threshold 0)\n" !failures
    (List.length cells);
  let json =
    Json_out.(
      obj
        [ ("suite", str "rolling");
          ("cells", arr (List.rev_map json_of_row !rows));
          ("cells_failed", int !failures) ])
  in
  Json_out.write path json;
  if !failures > 0 then exit 1
