(* Stateless model checker for the reconfiguration protocols.

   The explorer drives the deterministic simulator through every
   interleaving of a small configuration, CHESS-style: an execution is a
   sequence of *choices*, and each branch re-runs the simulation from
   scratch, replaying the shared choice prefix and then diverging. The
   engine's MC mode guarantees that replaying the same prefix reproduces
   the same event sequence numbers, so a recorded schedule is a stable
   name for an execution — which is what makes counterexamples
   replayable ([drc mc --repro]).

   Two kinds of choice point:

   - a {e scheduler} point: which pending event fires next, or an
     adversary move — kill an instance, arm a controller crash;
   - a {e fault} point: inside a firing, each message send asks the
     fault plane for a decision (deliver / drop / duplicate), bounded
     by the configuration's fault budget.

   Reduction, in three switchable tiers ({!mode}):

   - [Naive]: full enumeration — the denominator of the reported
     reduction ratio;
   - [Sleep]: sleep sets only — still provably exhaustive over the
     reachable state space, used for the "explored everything" claim;
   - [Dpor]: sleep sets plus persistent-set seeding by race analysis
     over the event labels' touch sets (the bus's per-route delivery
     dependencies), the default.

   Independence comes from {!Dr_sim.Engine.label}: two events are
   dependent iff either touches the whole system or their touch sets
   intersect. Quantum labels include the instance's out-neighbours, so
   a quantum that *sends* to C is dependent with every delivery into C
   — the race analysis then seeds the reordering that makes the
   conservative "skip when not co-enabled" rule sound for Fire tokens
   (an event not yet scheduled at state [i] is causally after [i] and
   cannot be reordered before it).

   On top of both: stateful duplicate detection. After every transition
   the explorer fingerprints (roster + machine globals + print history +
   queues + routes + reliable-channel protocol state + journal length +
   pending-event labels + remaining adversary budgets) and cuts the
   execution when the fingerprint was already visited. The workload
   prints on every state-changing step, so the fingerprint subsumes
   everything the monitors observe — two fingerprint-equal states agree
   on every monitor verdict, which keeps dedup sound for the
   history-dependent monitors. Dedup is also what closes the protocol's
   infinite loops (retransmission, idle sleep-wake): their state cycles
   fingerprint-converge.

   Executions the bounds cut short are never silently dropped: depth
   cuts count the enabled-but-unexplored frontier and the report says
   loudly when exhaustiveness was lost. *)

module Bus = Dr_bus.Bus
module Faults = Dr_bus.Faults
module Reliable = Dr_bus.Reliable
module Engine = Dr_sim.Engine
module Machine = Dr_interp.Machine
module Value = Dr_state.Value
module Wal = Dr_wal.Wal

type token =
  | Fire of int  (** fire the pooled event with this sequence number *)
  | Deliver  (** fault point: let the message through *)
  | Drop  (** fault point: lose the message *)
  | Dup  (** fault point: deliver it twice *)
  | Kill of string  (** adversary: crash this instance *)
  | Ctlcrash  (** adversary: controller dies at its next journal tick *)

type mode = Naive | Sleep | Dpor

(* One booted simulation instance, rebuilt from scratch per execution. *)
type run = {
  r_bus : Bus.t;
  r_monitors : Monitor.t list;
  r_reliable : Reliable.t option;
  r_globals : string list;  (** machine globals hashed into fingerprints *)
  r_extra_fp : unit -> string;  (** config-specific fingerprint extension *)
  r_kill_candidates : string list;
  r_allow_ctlcrash : bool;
}

type config = {
  c_name : string;
  c_setup : unit -> run;
  c_fault_budget : int;  (** total Drop/Dup decisions per execution *)
  c_crash_budget : int;  (** total Kill/Ctlcrash injections per execution *)
  c_depth : int;  (** max scheduler transitions per execution *)
  c_max_execs : int;  (** safety valve on total executions *)
}

type stats = {
  mutable executions : int;
  mutable transitions : int;  (** scheduler transitions fired, incl. replays *)
  mutable states : int;  (** distinct fingerprints *)
  mutable dedup_cuts : int;
  mutable sleep_prunes : int;
  mutable depth_cuts : int;
  mutable frontier : int;  (** enabled-but-unexplored transitions at cuts *)
  mutable capped : bool;  (** c_max_execs hit: exploration incomplete *)
}

type result = {
  res_mode : mode;
  res_stats : stats;
  res_violations : (Monitor.violation * token list) list;
      (** minimized, replayable schedules *)
}

let mode_name = function Naive -> "naive" | Sleep -> "sleep" | Dpor -> "dpor"

(* {1 Schedules as text} *)

let token_to_string = function
  | Fire seq -> Printf.sprintf "fire %d" seq
  | Deliver -> "deliver"
  | Drop -> "drop"
  | Dup -> "dup"
  | Kill i -> Printf.sprintf "kill %s" i
  | Ctlcrash -> "ctlcrash"

let token_of_string line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "fire"; n ] -> Option.map (fun s -> Fire s) (int_of_string_opt n)
  | [ "deliver" ] -> Some Deliver
  | [ "drop" ] -> Some Drop
  | [ "dup" ] -> Some Dup
  | [ "kill"; i ] -> Some (Kill i)
  | [ "ctlcrash" ] -> Some Ctlcrash
  | _ -> None

let schedule_to_string ~config_name tokens =
  String.concat "\n"
    (Printf.sprintf "config %s" config_name
    :: List.map token_to_string tokens)
  ^ "\n"

let schedule_of_string text =
  let lines =
    List.filter
      (fun l -> String.length l > 0 && l.[0] <> '#')
      (List.map String.trim (String.split_on_char '\n' text))
  in
  match lines with
  | [] -> Error "empty schedule"
  | first :: rest ->
    let name, body =
      match String.split_on_char ' ' first with
      | [ "config"; n ] -> (Some n, rest)
      | _ -> (None, lines)
    in
    let rec parse acc = function
      | [] -> Ok (name, List.rev acc)
      | l :: tl -> (
        match token_of_string l with
        | Some t -> parse (t :: acc) tl
        | None -> Error (Printf.sprintf "bad schedule line: %S" l))
    in
    parse [] body

(* {1 Independence} *)

(* An empty touch set means global: conservatively dependent with
   everything. Otherwise events commute unless their touch sets meet. *)
let dependent (a : Engine.label) (b : Engine.label) =
  a.Engine.lb_touch = []
  || b.Engine.lb_touch = []
  || List.exists (fun x -> List.mem x b.Engine.lb_touch) a.Engine.lb_touch

(* {1 The exploration tree}

   The stack holds one node per choice point of the current execution.
   A node is the state *before* its choice: [nd_chosen] is the branch
   the current execution took, [nd_done] every branch already fully
   explored (chosen included), [nd_todo] branches scheduled for later,
   [nd_sleep] the sleep set on entry. Branching pops a todo at the
   deepest such node and truncates everything beneath — by then the
   deeper subtree is fully explored, so nothing is lost. *)

type nd_kind = Sched | Fault

type node = {
  nd_kind : nd_kind;
  mutable nd_chosen : token;
  mutable nd_done : token list;
  mutable nd_todo : token list;
  nd_enabled : (token * Engine.label) list;  (** Sched nodes only *)
  nd_sleep : (token * Engine.label) list;
}

type st = {
  cfg : config;
  mode : mode;
  mutable stack : node array;
  mutable depth : int;  (** stack slots in use *)
  visited : (string, unit) Hashtbl.t;
  stats : stats;
  mutable violations : (Monitor.violation * token list) list;
}

let dummy_node =
  { nd_kind = Fault;
    nd_chosen = Deliver;
    nd_done = [];
    nd_todo = [];
    nd_enabled = [];
    nd_sleep = [] }

let push_node st nd =
  if st.depth = Array.length st.stack then begin
    let bigger = Array.make (max 64 (2 * st.depth)) dummy_node in
    Array.blit st.stack 0 bigger 0 st.depth;
    st.stack <- bigger
  end;
  st.stack.(st.depth) <- nd;
  st.depth <- st.depth + 1

let label_of nd tok =
  match List.find_opt (fun (t, _) -> t = tok) nd.nd_enabled with
  | Some (_, l) -> l
  | None -> Engine.tau

(* {1 Fingerprints}

   The fingerprint is the MD5 of a line-per-fact text: the roster with
   each instance's globals, print history and queues, then the routes,
   draining set, controller, journal, reliable channels, pending-event
   labels, remaining budgets and the configuration's extension. The
   text is written straight into one buffer, field by field: no
   [Printf] or [Format] per line, and integers, booleans and the
   workload's integer values are written without building a string.
   Its bytes are what ["I %s %s %s g%d %s"]-style formats would print,
   so the digest, and with it the visited set, does not depend on how
   the text is built. *)

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* [n] in decimal, as [%d] prints it *)
let add_int b n =
  if n >= 0 then add_digits b n
  else if n = min_int then Buffer.add_string b (string_of_int n)
  else begin
    Buffer.add_char b '-';
    add_digits b (-n)
  end

let add_bool b x = Buffer.add_string b (if x then "true" else "false")

(* [v] as {!Value.to_string} prints it *)
let add_value b (v : Value.t) =
  match v with
  | Vint i -> add_int b i
  | Vbool x -> add_bool b x
  | Vnull -> Buffer.add_string b "null"
  | Vfloat _ | Vstr _ | Varr _ | Vptr _ -> Buffer.add_string b (Value.to_string v)

let add_status b = function
  | Machine.Ready -> Buffer.add_string b "ready"
  | Machine.Sleeping _ ->
    Buffer.add_string b "sleeping"  (* duration is timing, not state *)
  | Machine.Blocked_read iface ->
    Buffer.add_string b "blocked:";
    Buffer.add_string b iface
  | Machine.Blocked_decode -> Buffer.add_string b "blocked-decode"
  | Machine.Halted -> Buffer.add_string b "halted"
  | Machine.Crashed m ->
    Buffer.add_string b "crashed:";
    Buffer.add_string b m

let add_endpoint b ((i, p) : Bus.endpoint) =
  Buffer.add_string b i;
  Buffer.add_char b '.';
  Buffer.add_string b p

(* [items] rendered by [add] and separated by [sep] *)
let add_sep b sep add items =
  List.iteri
    (fun k x ->
      if k > 0 then Buffer.add_char b sep;
      add b x)
    items

let fingerprint run ~faults_left ~crash_left ~ctlcrash_used =
  let bus = run.r_bus in
  let b = Buffer.create 1024 in
  let str = Buffer.add_string b and chr = Buffer.add_char b in
  let opt_str = function Some s -> str s | None -> chr '?' in
  List.iter
    (fun i ->
      str "I ";
      str i;
      chr ' ';
      opt_str (Bus.instance_module bus ~instance:i);
      chr ' ';
      opt_str (Bus.instance_host bus ~instance:i);
      str " g";
      add_int b
        (Option.value ~default:(-1) (Bus.instance_generation bus ~instance:i));
      chr ' ';
      (match Bus.process_status bus ~instance:i with
      | Some s -> add_status b s
      | None -> chr '?');
      chr '\n';
      (match Bus.machine bus ~instance:i with
      | None -> ()
      | Some m ->
        List.iter
          (fun g ->
            match Machine.read_global m g with
            | Some v ->
              str "G ";
              str g;
              chr '=';
              add_value b v;
              chr '\n'
            | None -> ())
          run.r_globals);
      List.iter
        (fun line ->
          str "O ";
          str line;
          chr '\n')
        (Bus.outputs bus ~instance:i);
      List.iter
        (fun (iface, vs) ->
          str "Q ";
          str i;
          chr '.';
          str iface;
          str " [";
          add_sep b ';' add_value vs;
          str "]\n")
        (Bus.queue_contents bus ~instance:i))
    (List.sort String.compare (Bus.instances bus));
  List.iter
    (fun (src, dst) ->
      str "R ";
      add_endpoint b src;
      chr '>';
      add_endpoint b dst;
      chr '\n')
    (List.sort compare (Bus.all_routes bus));
  str "D ";
  add_sep b ',' Buffer.add_string (Bus.draining_instances bus);
  str "\nC ";
  add_int b (Bus.ctl_scripts_open bus);
  chr ' ';
  add_bool b (Bus.controller_down bus);
  chr ' ';
  add_int b (Bus.ctl_appends bus);
  chr '\n';
  (match Bus.wal bus with
  | Some w ->
    str "W ";
    add_int b (Wal.next_lsn w);
    chr '\n'
  | None -> ());
  (match run.r_reliable with
  | None -> ()
  | Some rel ->
    (* epoch + the counters that shape future protocol behaviour
       (sent ~ next sequence number, delivered ~ receiver cursor,
       unacked ~ in-flight window, duplicate acks ~ how near a fast
       retransmit is). Pure observability counters — retransmissions,
       suppressed dups, fenced discards — are excluded so
       retransmission loops fingerprint-converge; the duplicate-ack
       count saturates at 3, so it converges too. A live timer event
       always fires a true timeout, whatever the clock reads, so no
       time enters the line. [Reliable.stats] comes sorted by channel,
       and a channel is unique per (src, dst). *)
    List.iter
      (fun (s : Reliable.stats) ->
        str "L ";
        add_endpoint b s.st_src;
        chr '>';
        add_endpoint b s.st_dst;
        str " e";
        add_int b s.st_epoch;
        str " s";
        add_int b s.st_sent;
        str " d";
        add_int b s.st_delivered;
        str " u";
        add_int b s.st_unacked;
        str " a";
        add_int b s.st_dup_acks;
        chr '\n')
      (Reliable.stats rel));
  List.iter
    (fun (kind, info) ->
      str "E ";
      str kind;
      chr '|';
      str info;
      chr '\n')
    (List.sort compare
       (List.map
          (fun (pe : Engine.pending_event) ->
            (pe.Engine.pe_label.Engine.lb_kind,
             pe.Engine.pe_label.Engine.lb_info))
          (Engine.mc_pending (Bus.engine bus))));
  str "B ";
  add_int b faults_left;
  chr ' ';
  add_int b crash_left;
  chr ' ';
  add_bool b ctlcrash_used;
  str "\nX ";
  str (run.r_extra_fp ());
  chr '\n';
  Digest.to_hex (Digest.string (Buffer.contents b))

(* {1 One execution} *)

type exec_end =
  | Quiescent
  | Dedup
  | Depth_cut
  | Sleep_prune
  | Violated of Monitor.violation
  | Diverged of string
      (** strict replay only: a recorded choice the simulation does not
          offer, named by its 1-based position and its token *)

type exec_report = {
  ex_end : exec_end;
  ex_schedule : token list;  (** every choice taken, in order *)
  ex_run : run;  (** the finished simulation, for post-mortem inspection *)
}

exception Stop_exec of exec_end

(* Drive one execution. [branch_depth] is the stack index of the node
   whose (freshly popped) [nd_chosen] this execution diverges on; -1
   runs pure defaults from the root. When [strict] is set the schedule
   comes from [forced] instead of the stack (counterexample replay) and
   any mismatch with what the simulation and the configuration actually
   enable — an event that is not pending, a fault token at a scheduler
   point or the reverse, an adversary move the budgets or the
   configuration do not allow — ends it as [Diverged]. *)
let run_execution ?(strict = false) ?(forced = []) (st : st option) cfg mode
    ~branch_depth =
  let run = cfg.c_setup () in
  let bus = run.r_bus in
  let engine = Bus.engine bus in
  let faults_used = ref 0 in
  let kills_used = ref 0 in
  let ctlcrash_used = ref false in
  let sched_steps = ref 0 in
  let pos = ref 0 in
  let forced = Array.of_list forced in
  let schedule_rev = ref [] in
  (* [forced.(k)] cannot be taken: abort the replay *)
  let diverge k why =
    raise
      (Stop_exec
         (Diverged
            (Printf.sprintf "choice %d (%s) %s" (k + 1)
               (token_to_string forced.(k))
               why)))
  in
  let take tok =
    schedule_rev := tok :: !schedule_rev;
    (match tok with
    | Drop | Dup -> incr faults_used
    | Kill _ -> incr kills_used
    | Ctlcrash -> ctlcrash_used := true
    | Fire _ | Deliver -> ());
    tok
  in
  let fault_alternatives () =
    if cfg.c_fault_budget - !faults_used > 0 then [ Drop; Dup ] else []
  in
  (* every message send is a fault choice point *)
  let decide ~src:_ ~dst:_ =
    let tok =
      if strict then
        if !pos < Array.length forced then begin
          let k = !pos in
          incr pos;
          match forced.(k) with
          | Deliver -> Deliver
          | (Drop | Dup) as t ->
            if cfg.c_fault_budget - !faults_used > 0 then t
            else diverge k "exceeds the fault budget"
          | Fire _ | Kill _ | Ctlcrash -> diverge k "at a fault point"
        end
        else Deliver
      else (
        match st with
        | None -> Deliver
        | Some st ->
          if !pos <= branch_depth then begin
            let nd = st.stack.(!pos) in
            incr pos;
            nd.nd_chosen
          end
          else begin
            push_node st
              { nd_kind = Fault;
                nd_chosen = Deliver;
                nd_done = [ Deliver ];
                nd_todo = fault_alternatives ();
                nd_enabled = [];
                nd_sleep = [] };
            incr pos;
            Deliver
          end)
    in
    match take tok with
    | Deliver -> Bus.Deliver
    | Drop -> Bus.Drop
    | Dup -> Bus.Duplicate
    | _ -> Bus.Deliver
  in
  Faults.explorable bus ~decide;
  let apply_sched tok =
    incr sched_steps;
    (match st with Some st -> st.stats.transitions <- st.stats.transitions + 1
    | None -> ());
    match tok with
    | Fire seq ->
      if not (Engine.mc_fire engine ~seq) then
        failwith "mc: replay diverged (event vanished)"
    | Kill inst -> Bus.crash_process bus ~instance:inst ~reason:"mc adversary"
    | Ctlcrash -> Bus.arm_ctl_crash bus ~after:1
    | Deliver | Drop | Dup -> failwith "mc: fault token at scheduler point"
  in
  let step_monitors () =
    List.fold_left
      (fun acc (m : Monitor.t) ->
        match acc with Some _ -> acc | None -> m.Monitor.m_step ())
      None run.r_monitors
  in
  let enabled_sched () =
    let fires =
      List.map
        (fun (pe : Engine.pending_event) ->
          (Fire pe.Engine.pe_seq, pe.Engine.pe_label))
        (Engine.mc_pending engine)
    in
    if fires = [] then []
    else begin
      let crash_left =
        cfg.c_crash_budget - !kills_used
        - (if !ctlcrash_used then 1 else 0)
      in
      let live = Bus.instances bus in
      let kills =
        if crash_left > 0 then
          List.filter_map
            (fun i ->
              if List.mem i live then
                Some
                  (Kill i, Engine.label ~touch:[ i ] ~info:("kill " ^ i) "kill")
              else None)
            run.r_kill_candidates
        else []
      in
      let ctlc =
        if crash_left > 0 && run.r_allow_ctlcrash && not !ctlcrash_used then
          [ (Ctlcrash, Engine.label ~info:"ctl-crash" "ctlcrash") ]
        else []
      in
      fires @ kills @ ctlc
    end
  in
  let fp () =
    fingerprint run
      ~faults_left:(cfg.c_fault_budget - !faults_used)
      ~crash_left:
        (cfg.c_crash_budget - !kills_used - if !ctlcrash_used then 1 else 0)
      ~ctlcrash_used:!ctlcrash_used
  in
  let check_state_new () =
    match st with
    | None -> ()
    | Some st ->
      let h = fp () in
      if Hashtbl.mem st.visited h then raise (Stop_exec Dedup)
      else begin
        Hashtbl.add st.visited h ();
        st.stats.states <- st.stats.states + 1
      end
  in
  let check_monitors () =
    match step_monitors () with
    | Some v -> raise (Stop_exec (Violated v))
    | None -> ()
  in
  let check_depth () =
    if !sched_steps >= cfg.c_depth then begin
      (match st with
      | Some st ->
        st.stats.frontier <- st.stats.frontier + List.length (enabled_sched ())
      | None -> ());
      raise (Stop_exec Depth_cut)
    end
  in
  let last_sched_node () =
    match st with
    | None -> None
    | Some st ->
      let rec scan i =
        if i < 0 then None
        else if st.stack.(i).nd_kind = Sched then Some st.stack.(i)
        else scan (i - 1)
      in
      scan (!pos - 1)
  in
  let ending =
    try
      (* replay the shared prefix (branch node included) *)
      if strict then
        while !pos < Array.length forced do
          let k = !pos in
          incr pos;
          (match forced.(k) with
          | Deliver | Drop | Dup -> diverge k "at a scheduler point"
          | tok ->
            (* the moves an explored execution could take here: pending
               events, and adversary moves within budget *)
            if not (List.exists (fun (t, _) -> t = tok) (enabled_sched ()))
            then
              diverge k
                (match tok with
                | Fire _ -> "names no pending event"
                | _ -> "is not an adversary move enabled here");
            apply_sched (take tok));
          check_monitors ()
        done
      else begin
        match st with
        | None -> ()
        | Some st ->
          while !pos <= branch_depth do
            let nd = st.stack.(!pos) in
            (match nd.nd_kind with
            | Fault ->
              (* fault nodes are consumed by the hook inside their
                 enclosing scheduler transition; reaching one here means
                 the stack is corrupt *)
              failwith "mc: dangling fault node in replay"
            | Sched ->
              incr pos;
              apply_sched (take nd.nd_chosen));
            check_monitors ()
          done;
          (* the branch node's choice produced a possibly-new state *)
          if branch_depth >= 0 then check_state_new ()
      end;
      (* default-extend to an end *)
      let continue = ref true in
      while !continue do
        check_depth ();
        let enabled = enabled_sched () in
        if enabled = [] then begin
          continue := false
        end
        else begin
          let sleep =
            match (mode, last_sched_node ()) with
            | Naive, _ | _, None -> []
            | _, Some parent ->
              let pl = label_of parent parent.nd_chosen in
              let explored =
                List.filter_map
                  (fun t ->
                    if t = parent.nd_chosen then None
                    else
                      match
                        List.find_opt (fun (e, _) -> e = t) parent.nd_enabled
                      with
                      | Some (_, l) -> Some (t, l)
                      | None -> None)
                  parent.nd_done
              in
              List.filter
                (fun (_, l) -> not (dependent l pl))
                (parent.nd_sleep @ explored)
          in
          let in_sleep t = List.exists (fun (s, _) -> s = t) sleep in
          let avail = List.filter (fun (t, _) -> not (in_sleep t)) enabled in
          if avail = [] then raise (Stop_exec Sleep_prune);
          let chosen, _ =
            match
              List.find_opt
                (fun (t, _) -> match t with Fire _ -> true | _ -> false)
                avail
            with
            | Some x -> x
            | None -> List.hd avail
          in
          let todo =
            let others =
              List.filter_map
                (fun (t, _) -> if t = chosen then None else Some t)
                enabled
            in
            match mode with
            | Naive -> others
            | Sleep -> List.filter (fun t -> not (in_sleep t)) others
            | Dpor ->
              (* adversary moves have no Fire event to race with, so the
                 race analysis never seeds them: seed exhaustively here *)
              List.filter
                (fun t ->
                  (match t with Kill _ | Ctlcrash -> true | _ -> false)
                  && not (in_sleep t))
                others
          in
          (match st with
          | Some st ->
            push_node st
              { nd_kind = Sched;
                nd_chosen = chosen;
                nd_done = [ chosen ];
                nd_todo = todo;
                nd_enabled = enabled;
                nd_sleep = sleep }
          | None -> ());
          incr pos;
          apply_sched (take chosen);
          check_monitors ();
          check_state_new ()
        end
      done;
      Quiescent
    with Stop_exec e -> e
  in
  (* terminal ends run the final monitors; pruned branches do not *)
  let ending =
    match ending with
    | Quiescent | Depth_cut -> (
      let fin =
        { Monitor.fin_quiescent = (ending = Quiescent);
          fin_faults = !faults_used;
          fin_kills = !kills_used;
          fin_ctlcrash = !ctlcrash_used }
      in
      match
        List.fold_left
          (fun acc (m : Monitor.t) ->
            match acc with Some _ -> acc | None -> m.Monitor.m_final fin)
          None run.r_monitors
      with
      | Some v -> Violated v
      | None -> ending)
    | e -> e
  in
  (match st with
  | Some st -> (
    st.stats.executions <- st.stats.executions + 1;
    match ending with
    | Dedup -> st.stats.dedup_cuts <- st.stats.dedup_cuts + 1
    | Sleep_prune -> st.stats.sleep_prunes <- st.stats.sleep_prunes + 1
    | Depth_cut -> st.stats.depth_cuts <- st.stats.depth_cuts + 1
    | Quiescent | Violated _ | Diverged _ -> ())
  | None -> ());
  { ex_end = ending; ex_schedule = List.rev !schedule_rev; ex_run = run }

(* {1 Counterexample replay and minimization} *)

type replay_report = {
  rp_violation : Monitor.violation option;
  rp_end : string;
  rp_schedule : token list;  (** choices actually consumed *)
  rp_run : run option;
      (** the replayed simulation; [None] exactly when the schedule
          diverged *)
}

let end_name = function
  | Quiescent -> "quiescent"
  | Violated _ -> "violation"
  | Depth_cut -> "depth-cut"
  | Dedup -> "dedup"
  | Sleep_prune -> "sleep-prune"
  | Diverged why -> "diverged: " ^ why

(* Re-run one exact schedule against a fresh simulation, default-
   extending past its end. Used by [drc mc --repro] and by shrinking. A
   schedule that does not replay ends "diverged: ...", naming the first
   choice the simulation or the configuration refused. *)
let replay cfg tokens =
  match
    run_execution ~strict:true ~forced:tokens None cfg Dpor ~branch_depth:(-1)
  with
  | r ->
    { rp_violation = (match r.ex_end with Violated v -> Some v | _ -> None);
      rp_end = end_name r.ex_end;
      rp_schedule = r.ex_schedule;
      rp_run =
        (match r.ex_end with Diverged _ -> None | _ -> Some r.ex_run) }
  | exception Failure msg ->
    { rp_violation = None;
      rp_end = "diverged: " ^ msg;
      rp_schedule = [];
      rp_run = None }

(* ddmin-lite: drop the unused tail, then repeatedly try to neutralize
   each adversary choice (drop/dup -> deliver; kill/ctlcrash removed)
   while the same monitor still fires. Best-effort and bounded. *)
let minimize cfg ~monitor tokens =
  let attempts = ref 0 in
  let still_fails sch =
    incr attempts;
    !attempts <= 200
    &&
    match (replay cfg sch).rp_violation with
    | Some v -> String.equal v.Monitor.v_monitor monitor
    | None -> false
  in
  let truncate sch =
    match replay cfg sch with
    | { rp_violation = Some v; rp_schedule = consumed; _ }
      when String.equal v.Monitor.v_monitor monitor ->
      consumed
    | _ -> sch
  in
  let rec shrink sch =
    let n = List.length sch in
    let rec aux i =
      if i >= n then sch
      else
        let tok = List.nth sch i in
        let cand =
          match tok with
          | Drop | Dup ->
            Some (List.mapi (fun j t -> if j = i then Deliver else t) sch)
          | Kill _ | Ctlcrash -> Some (List.filteri (fun j _ -> j <> i) sch)
          | Fire _ | Deliver -> None
        in
        match cand with
        | Some cand when still_fails cand -> shrink (truncate cand)
        | _ -> aux (i + 1)
    in
    aux 0
  in
  shrink (truncate tokens)

(* {1 DPOR race analysis}

   After each execution, walk its scheduler transitions: for each step
   [j], find the most recent earlier step [i] whose label is dependent
   with [j]'s. If [j]'s token was already enabled in the state before
   [i], the two are racing — seed [j]'s token as a backtrack point at
   [i] so the reversed order gets explored. A token not enabled at [i]
   was scheduled by a later step: causally ordered, not a race. *)
let dpor_update st =
  let scheds =
    let acc = ref [] in
    for i = st.depth - 1 downto 0 do
      if st.stack.(i).nd_kind = Sched then acc := st.stack.(i) :: !acc
    done;
    Array.of_list !acc
  in
  let n = Array.length scheds in
  for j = 1 to n - 1 do
    let ndj = scheds.(j) in
    let tokj = ndj.nd_chosen in
    let lj = label_of ndj tokj in
    let rec back i =
      if i < 0 then ()
      else
        let ndi = scheds.(i) in
        if dependent (label_of ndi ndi.nd_chosen) lj then begin
          if
            List.exists (fun (t, _) -> t = tokj) ndi.nd_enabled
            && (not (List.mem tokj ndi.nd_done))
            && (not (List.mem tokj ndi.nd_todo))
            && not (List.exists (fun (t, _) -> t = tokj) ndi.nd_sleep)
          then ndi.nd_todo <- tokj :: ndi.nd_todo
        end
        else back (i - 1)
    in
    back (j - 1)
  done

(* {1 The exploration driver} *)

let fresh_stats () =
  { executions = 0;
    transitions = 0;
    states = 0;
    dedup_cuts = 0;
    sleep_prunes = 0;
    depth_cuts = 0;
    frontier = 0;
    capped = false }

let explore ?(mode = Dpor) ?(stop_on_violation = true)
    ?(on_exec : (exec_report -> unit) option) cfg =
  let st =
    { cfg;
      mode;
      stack = Array.make 64 dummy_node;
      depth = 0;
      visited = Hashtbl.create 4096;
      stats = fresh_stats ();
      violations = [] }
  in
  let branch = ref (-1) in
  let continue = ref true in
  while !continue do
    let r = run_execution (Some st) cfg mode ~branch_depth:!branch in
    (match on_exec with Some f -> f r | None -> ());
    (match r.ex_end with
    | Violated v ->
      let minimized = minimize cfg ~monitor:v.Monitor.v_monitor r.ex_schedule in
      st.violations <- (v, minimized) :: st.violations;
      if stop_on_violation then continue := false
    | _ -> ());
    if st.mode = Dpor then dpor_update st;
    if !continue then
      if st.stats.executions >= cfg.c_max_execs then begin
        st.stats.capped <- true;
        continue := false
      end
      else begin
        (* branch at the deepest unexplored choice *)
        let rec deepest i =
          if i < 0 then None
          else if st.stack.(i).nd_todo <> [] then Some i
          else deepest (i - 1)
        in
        match deepest (st.depth - 1) with
        | None -> continue := false
        | Some d ->
          let nd = st.stack.(d) in
          (match nd.nd_todo with
          | tok :: rest ->
            nd.nd_todo <- rest;
            nd.nd_chosen <- tok;
            nd.nd_done <- tok :: nd.nd_done
          | [] -> assert false);
          st.depth <- d + 1;
          branch := d
      end
  done;
  { res_mode = mode;
    res_stats = st.stats;
    res_violations = List.rev st.violations }

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "executions %d, transitions %d, states %d, dedup cuts %d, sleep prunes \
     %d, depth cuts %d, frontier %d%s"
    s.executions s.transitions s.states s.dedup_cuts s.sleep_prunes
    s.depth_cuts s.frontier
    (if s.capped then " [CAPPED: exploration incomplete]" else "")

let pp_result ppf r =
  Fmt.pf ppf "[%s] %a@." (mode_name r.res_mode) pp_stats r.res_stats;
  if r.res_stats.depth_cuts > 0 || r.res_stats.capped then
    Fmt.pf ppf
      "WARNING: exploration is NOT exhaustive (%d depth cuts leaving %d \
       enabled transitions unexplored%s)@."
      r.res_stats.depth_cuts r.res_stats.frontier
      (if r.res_stats.capped then "; execution cap hit" else "");
  List.iter
    (fun ((v : Monitor.violation), sched) ->
      Fmt.pf ppf "VIOLATION [%s] %s@.  schedule (%d choices): %s@."
        v.Monitor.v_monitor v.Monitor.v_detail (List.length sched)
        (String.concat " " (List.map token_to_string sched)))
    r.res_violations
