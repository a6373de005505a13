module Prng = Dr_sim.Prng
module Pqueue = Dr_sim.Pqueue
module Engine = Dr_sim.Engine
module Trace = Dr_sim.Trace
module E = Dr_sim.Trace_event

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 in
  let b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create ~seed:1 in
  let b = Prng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prng.next_int64 a) (Prng.next_int64 b)) then
      differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_prng_int_bounds () =
  let t = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int t 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_prng_float_bounds () =
  let t = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.float t 3.5 in
    if v < 0.0 || v >= 3.5 then Alcotest.failf "out of range: %f" v
  done

let test_prng_int_rejects_nonpositive () =
  let t = Prng.create ~seed:7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0))

let test_prng_copy_independent () =
  let a = Prng.create ~seed:9 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 a)
    (Prng.next_int64 b)

let test_prng_split () =
  let a = Prng.create ~seed:3 in
  let b = Prng.split a in
  let xa = Prng.next_int64 a and xb = Prng.next_int64 b in
  Alcotest.(check bool) "split stream differs" true (not (Int64.equal xa xb))

let test_pqueue_orders_by_time () =
  let q = Pqueue.create () in
  Pqueue.push q ~time:3.0 ~seq:0 "c";
  Pqueue.push q ~time:1.0 ~seq:1 "a";
  Pqueue.push q ~time:2.0 ~seq:2 "b";
  let order = List.init 3 (fun _ -> match Pqueue.pop q with Some (_, _, x) -> x | None -> "?") in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] order

let test_pqueue_ties_by_seq () =
  let q = Pqueue.create () in
  Pqueue.push q ~time:1.0 ~seq:5 "second";
  Pqueue.push q ~time:1.0 ~seq:2 "first";
  let first = match Pqueue.pop q with Some (_, _, x) -> x | None -> "?" in
  Alcotest.(check string) "seq breaks tie" "first" first

let test_pqueue_empty () =
  let q : int Pqueue.t = Pqueue.create () in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Alcotest.(check bool) "pop none" true (Pqueue.pop q = None);
  Alcotest.(check bool) "peek none" true (Pqueue.peek_time q = None)

let prop_pqueue_sorts =
  Support.qcheck "pqueue pops sorted" QCheck2.Gen.(list (pair (float_bound_inclusive 1000.0) small_nat))
    (fun entries ->
      let q = Pqueue.create () in
      List.iteri (fun i (time, payload) -> Pqueue.push q ~time ~seq:i payload) entries;
      let rec drain acc =
        match Pqueue.pop q with
        | Some (time, _, _) -> drain (time :: acc)
        | None -> List.rev acc
      in
      let times = drain [] in
      List.sort compare times = times)

let test_pqueue_clear () =
  let q = Pqueue.create () in
  Pqueue.push q ~time:1.0 ~seq:0 "a";
  Pqueue.push q ~time:2.0 ~seq:1 "b";
  Pqueue.clear q;
  Alcotest.(check bool) "empty after clear" true (Pqueue.is_empty q);
  Alcotest.(check bool) "pop none" true (Pqueue.pop q = None);
  Pqueue.push q ~time:3.0 ~seq:2 "c";
  Alcotest.(check bool) "usable after clear" true
    (match Pqueue.pop q with Some (_, _, "c") -> true | _ -> false)

let test_pqueue_releases_popped () =
  (* regression: popped entries used to linger in the heap array's spare
     slots, retaining their payloads (event closures) indefinitely *)
  let q = Pqueue.create () in
  let w = Weak.create 2 in
  let fill () =
    for i = 0 to 9 do
      let payload = ref i in
      if i = 0 then Weak.set w 0 (Some payload);
      if i = 9 then Weak.set w 1 (Some payload);
      Pqueue.push q ~time:(float_of_int i) ~seq:i payload
    done
  in
  fill ();
  for _ = 1 to 10 do ignore (Pqueue.pop q) done;
  Gc.full_major ();
  Alcotest.(check bool) "popped payloads not retained by the heap array" true
    (Weak.get w 0 = None && Weak.get w 1 = None)

let test_pqueue_clear_releases () =
  let q = Pqueue.create () in
  let w = Weak.create 1 in
  let fill () =
    let payload = ref 0 in
    Weak.set w 0 (Some payload);
    Pqueue.push q ~time:1.0 ~seq:0 payload
  in
  fill ();
  Pqueue.clear q;
  Gc.full_major ();
  Alcotest.(check bool) "cleared payloads not retained" true (Weak.get w 0 = None)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 (fun () -> log := "late" :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := "early" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "early"; "late" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 2.0 (Engine.now e)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let hits = ref [] in
  Engine.schedule e ~delay:1.0 (fun () ->
      hits := Engine.now e :: !hits;
      Engine.schedule e ~delay:1.5 (fun () -> hits := Engine.now e :: !hits));
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "times" [ 1.0; 2.5 ] (List.rev !hits)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~delay:(float_of_int i) (fun () -> incr count)
  done;
  Engine.run ~until:5.0 e;
  Alcotest.(check int) "only first five" 5 !count;
  Alcotest.(check int) "five pending" 5 (Engine.pending e)

let test_engine_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~delay:(float_of_int i) (fun () -> incr count)
  done;
  Engine.run ~max_events:3 e;
  Alcotest.(check int) "three fired" 3 !count

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  Engine.schedule e ~delay:5.0 (fun () ->
      Engine.schedule e ~delay:(-10.0) (fun () ->
          Alcotest.(check (float 1e-9)) "clamped to now" 5.0 (Engine.now e)));
  Engine.run e

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo within a timestamp" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

(* A cancelled pooled event leaves the model checker's view for good,
   and no other event changes its sequence number: recorded schedules
   name the same events with or without the cancelled one. *)
let test_engine_cancel_pooled () =
  let e = Engine.create () in
  Engine.mc_enable e;
  let fired = ref [] in
  let note name () = fired := name :: !fired in
  Engine.schedule e ~delay:1.0 (note "a");
  let b = Engine.schedule_event e ~delay:2.0 (note "b") in
  Engine.schedule e ~delay:3.0 (note "c");
  let seqs () =
    List.map (fun (pe : Engine.pending_event) -> pe.pe_seq) (Engine.mc_pending e)
  in
  Alcotest.(check (list int)) "three pooled" [ 0; 1; 2 ] (seqs ());
  Engine.cancel e b;
  Alcotest.(check (list int)) "b left the pool" [ 0; 2 ] (seqs ());
  Alcotest.(check int) "pending" 2 (Engine.pending e);
  Engine.schedule e ~delay:4.0 (note "d");
  Alcotest.(check (list int)) "no sequence number reused" [ 0; 2; 3 ] (seqs ());
  Alcotest.(check bool) "cancelled event cannot fire" false
    (Engine.mc_fire e ~seq:1);
  List.iter (fun seq -> ignore (Engine.mc_fire e ~seq)) [ 3; 0; 2 ];
  Alcotest.(check (list string)) "the others fired" [ "d"; "a"; "c" ]
    (List.rev !fired);
  Alcotest.(check int) "counted" 3 (Engine.events_fired e)

(* In the heap a cancelled event still moves the clock when it reaches
   the head, exactly as an event that does nothing would, but it is not
   run and not counted. *)
let test_engine_cancel_heap () =
  let run ~cancel_it =
    let e = Engine.create () in
    let ran = ref false in
    Engine.schedule e ~delay:1.0 ignore;
    let late = Engine.schedule_event e ~delay:4.0 (fun () -> ran := true) in
    Engine.schedule e ~delay:6.0 ignore;
    if cancel_it then Engine.cancel e late;
    Engine.run ~until:5.0 e;
    (!ran, Engine.events_fired e, Engine.now e, Engine.pending e)
  in
  let ran, fired, clock, pending = run ~cancel_it:false in
  Alcotest.(check bool) "uncancelled runs" true ran;
  Alcotest.(check int) "uncancelled counted" 2 fired;
  Alcotest.(check (float 0.0)) "clock" 4.0 clock;
  Alcotest.(check int) "one left" 1 pending;
  let ran', fired', clock', pending' = run ~cancel_it:true in
  Alcotest.(check bool) "cancelled does not run" false ran';
  Alcotest.(check int) "cancelled not counted" 1 fired';
  Alcotest.(check (float 0.0)) "the clock moves as before" clock clock';
  Alcotest.(check int) "popped all the same" pending pending'

(* Cancelling twice, or after the event fired, is a no-op in both
   modes. *)
let test_engine_cancel_idempotent () =
  let heap = Engine.create () in
  let hits = ref 0 in
  let ev = Engine.schedule_event heap ~delay:1.0 (fun () -> incr hits) in
  Engine.run heap;
  Engine.cancel heap ev;
  Engine.cancel heap ev;
  Alcotest.(check int) "fired once" 1 !hits;
  let ev2 = Engine.schedule_event heap ~delay:1.0 (fun () -> incr hits) in
  Engine.cancel heap ev2;
  Engine.cancel heap ev2;
  Engine.run heap;
  Alcotest.(check int) "cancelled twice, never ran" 1 !hits;
  Alcotest.(check int) "heap counts" 1 (Engine.events_fired heap);
  let pool = Engine.create () in
  Engine.mc_enable pool;
  let a = Engine.schedule_event pool ~delay:1.0 (fun () -> incr hits) in
  let b = Engine.schedule_event pool ~delay:1.0 (fun () -> incr hits) in
  Alcotest.(check bool) "a fires" true (Engine.mc_fire pool ~seq:0);
  Engine.cancel pool a;
  Engine.cancel pool b;
  Engine.cancel pool b;
  Alcotest.(check int) "pool empty" 0 (Engine.pending pool);
  Alcotest.(check int) "pool fired a only" 2 !hits

(* A NaN time would break the heap order (every comparison with it is
   false), so scheduling one is refused. *)
let test_engine_rejects_nan () =
  let e = Engine.create () in
  Alcotest.check_raises "delay"
    (Invalid_argument "Engine.schedule: delay is NaN") (fun () ->
      Engine.schedule e ~delay:nan ignore);
  Alcotest.check_raises "time"
    (Invalid_argument "Engine.schedule_at: time is NaN") (fun () ->
      Engine.schedule_at e ~time:nan ignore);
  Alcotest.(check int) "nothing queued" 0 (Engine.pending e)

(* [Engine.run] refuses a NaN horizon, as [schedule_at] refuses a NaN
   time: every comparison with it is false, so it would run nothing. *)
let test_engine_run_rejects_nan () =
  let e = Engine.create () in
  let ran = ref false in
  Engine.schedule e ~delay:1.0 (fun () -> ran := true);
  Alcotest.check_raises "until" (Invalid_argument "Engine.run: until is NaN")
    (fun () -> Engine.run ~until:nan e);
  Alcotest.(check bool) "nothing ran" false !ran;
  Alcotest.(check int) "still pending" 1 (Engine.pending e)

(* ---------------------------------------------- engine order property *)

(* Random schedule / schedule_at / schedule_event / cancel / step / run
   calls against a reference list ordered by (time, seq). Times sit on a
   half-unit grid, so many events share an instant. A firing event may
   schedule at its own instant or cancel any handle, including its own,
   one already fired, or one cancelled before: so the property covers
   scheduling and cancelling inside the instant being fired, and stale
   handles once the engine has moved on and reused an instant's
   storage. *)
type follow =
  | F_none
  | F_sched of int  (* schedule, delay in half units *)
  | F_sched_event of int  (* schedule_event, delay in half units *)
  | F_cancel of int  (* cancel handle number k (mod the handle count) *)

type engine_op =
  | Schedule of int * follow  (* delay in half units; negative: clamped *)
  | Schedule_at of int * follow  (* half units from the clock; may be past *)
  | Schedule_event of int * follow
  | Cancel of int
  | Step
  | Run of int * int  (* until: half units from the clock; max_events *)

let half k = float_of_int k *. 0.5

let gen_follow =
  QCheck2.Gen.(
    frequency
      [ (3, pure F_none);
        (2, map (fun d -> F_sched d) (int_range 0 2));
        (2, map (fun d -> F_sched_event d) (int_range 0 2));
        (3, map (fun k -> F_cancel k) small_nat) ])

let gen_engine_op =
  QCheck2.Gen.(
    frequency
      [ (3, map2 (fun d f -> Schedule (d, f)) (int_range (-1) 4) gen_follow);
        (2, map2 (fun d f -> Schedule_at (d, f)) (int_range (-2) 4) gen_follow);
        (3, map2 (fun d f -> Schedule_event (d, f)) (int_range 0 4) gen_follow);
        (3, map (fun k -> Cancel k) small_nat);
        (3, pure Step);
        (2, map2 (fun u n -> Run (u, n)) (int_range 0 4) (int_range 1 8)) ])

let print_engine_op =
  let follow = function
    | F_none -> "-"
    | F_sched d -> Printf.sprintf "sched %d" d
    | F_sched_event d -> Printf.sprintf "sched_event %d" d
    | F_cancel k -> Printf.sprintf "cancel %d" k
  in
  function
  | Schedule (d, f) -> Printf.sprintf "schedule %d (%s)" d (follow f)
  | Schedule_at (d, f) -> Printf.sprintf "schedule_at +%d (%s)" d (follow f)
  | Schedule_event (d, f) -> Printf.sprintf "schedule_event %d (%s)" d (follow f)
  | Cancel k -> Printf.sprintf "cancel %d" k
  | Step -> "step"
  | Run (u, n) -> Printf.sprintf "run ~until:+%d ~max_events:%d" u n

(* What a run shows: the ids fired, in order, and after every call the
   clock, the pending count and the fired count. *)
type engine_view = { fired_ids : int list; after_each : (float * int * int) list }

let drive_engine ops =
  let e = Engine.create () in
  let log = ref [] and next_id = ref 0 in
  let handles = Hashtbl.create 16 in
  let cancel k =
    let n = Hashtbl.length handles in
    if n > 0 then Engine.cancel e (Hashtbl.find handles (k mod n))
  in
  let rec thunk follow =
    let id = !next_id in
    incr next_id;
    fun () ->
      log := id :: !log;
      match follow with
      | F_none -> ()
      | F_sched d -> Engine.schedule e ~delay:(half d) (thunk F_none)
      | F_sched_event d -> keep (Engine.schedule_event e ~delay:(half d) (thunk F_none))
      | F_cancel k -> cancel k
  and keep ev = Hashtbl.replace handles (Hashtbl.length handles) ev in
  let after_each =
    List.map
      (fun op ->
        (match op with
        | Schedule (d, f) -> Engine.schedule e ~delay:(half d) (thunk f)
        | Schedule_at (d, f) ->
          Engine.schedule_at e ~time:(Engine.now e +. half d) (thunk f)
        | Schedule_event (d, f) ->
          keep (Engine.schedule_event e ~delay:(half d) (thunk f))
        | Cancel k -> cancel k
        | Step -> ignore (Engine.step e : bool)
        | Run (u, n) ->
          Engine.run ~until:(Engine.now e +. half u) ~max_events:n e);
        (Engine.now e, Engine.pending e, Engine.events_fired e))
      ops
  in
  { fired_ids = List.rev !log; after_each }

(* The reference: a plain list of events, the next one the least
   (time, seq) not yet popped. *)
type ref_event = {
  r_time : float;
  r_seq : int;
  r_id : int;
  r_follow : follow;
  mutable r_cancelled : bool;
  mutable r_popped : bool;
}

let drive_reference ops =
  let clock = ref 0.0 and seq = ref 0 and next_id = ref 0 and fired = ref 0 in
  let events = ref [] and handles = ref [] and log = ref [] in
  let add ~time follow =
    let ev =
      { r_time = Float.max time !clock; r_seq = !seq; r_id = !next_id;
        r_follow = follow; r_cancelled = false; r_popped = false }
    in
    incr seq;
    incr next_id;
    events := ev :: !events;
    ev
  in
  let keep ev = handles := !handles @ [ ev ] in
  let cancel k =
    match !handles with
    | [] -> ()
    | hs ->
      let ev = List.nth hs (k mod List.length hs) in
      if not ev.r_popped then ev.r_cancelled <- true
  in
  let next () =
    List.fold_left
      (fun best ev ->
        if ev.r_popped then best
        else
          match best with
          | Some b when (b.r_time, b.r_seq) < (ev.r_time, ev.r_seq) -> best
          | _ -> Some ev)
      None !events
  in
  let step () =
    match next () with
    | None -> ()
    | Some ev ->
      ev.r_popped <- true;
      clock := ev.r_time;
      if not ev.r_cancelled then begin
        incr fired;
        log := ev.r_id :: !log;
        match ev.r_follow with
        | F_none -> ()
        | F_sched d -> ignore (add ~time:(!clock +. half d) F_none : ref_event)
        | F_sched_event d -> keep (add ~time:(!clock +. half d) F_none)
        | F_cancel k -> cancel k
      end
  in
  let pending () = List.length (List.filter (fun ev -> not ev.r_popped) !events) in
  let after_each =
    List.map
      (fun op ->
        (match op with
        | Schedule (d, f) -> ignore (add ~time:(!clock +. half d) f : ref_event)
        | Schedule_at (d, f) -> ignore (add ~time:(!clock +. half d) f : ref_event)
        | Schedule_event (d, f) -> keep (add ~time:(!clock +. half d) f)
        | Cancel k -> cancel k
        | Step -> step ()
        | Run (u, n) ->
          let until = !clock +. half u in
          let rec loop remaining =
            match next () with
            | Some ev when remaining > 0 && ev.r_time <= until ->
              step ();
              loop (remaining - 1)
            | Some _ | None -> ()
          in
          loop n);
        (!clock, pending (), !fired))
      ops
  in
  { fired_ids = List.rev !log; after_each }

let prop_engine_order =
  Support.qcheck ~count:500 "engine fires in (time, seq) order"
    ~print:(fun ops -> String.concat "; " (List.map print_engine_op ops))
    QCheck2.Gen.(list_size (int_range 1 80) gen_engine_op)
    (fun ops -> drive_engine ops = drive_reference ops)

let test_trace_records_and_filters () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 (E.Halted "one");
  Trace.record t ~time:2.0 (E.Host_crashed "two");
  Trace.record t ~time:3.0 (E.Halted "three");
  Alcotest.(check int) "length" 3 (Trace.length t);
  Alcotest.(check (list string)) "filter halt" [ "one halted"; "three halted" ]
    (List.map (fun (e : Trace.entry) -> e.detail) (Trace.by_category t "halt"));
  Trace.clear t;
  Alcotest.(check int) "cleared" 0 (Trace.length t)

(* [since t n] is the suffix past the first [n] entries: the cursor
   read the model-checking monitors make after every transition, now
   through [events_since], its unrendered twin. Traces run past one
   64-record storage chunk. *)
let prop_trace_since =
  Support.qcheck "since is the suffix past n"
    QCheck2.Gen.(list_size (int_bound 140) (pair (int_bound 3) small_nat))
    (fun records ->
      let t = Trace.create () in
      List.iteri
        (fun i (c, d) ->
          let ev =
            match c with
            | 0 -> E.Ctl_crashed d
            | 1 -> E.Wave_committed d
            | 2 -> E.Replay_completed d
            | _ -> E.Halted (string_of_int d)
          in
          Trace.record t ~time:(float_of_int i) ev)
        records;
      let all = Trace.entries t in
      let all_events = Trace.events t in
      let len = Trace.length t in
      let suffix n l = List.filteri (fun i _ -> i >= n) l in
      List.for_all
        (fun n ->
          Trace.since t n = suffix n all
          && Trace.events_since t n = suffix n all_events)
        (List.init (len + 1) Fun.id)
      && Trace.since t len = []
      && Trace.events_since t len = []
      && List.length all_events = List.length records
      &&
      (Trace.clear t;
       Trace.since t 0 = [] && Trace.events_since t 0 = []))

(* Every event's text view, one sample per constructor (two where a
   field picks between wordings). Each expected detail was printed by
   the format string the event replaced, applied to the same
   arguments, so the text trace reads exactly as it did when the
   recording path still formatted every line. *)
let trace_event_pins =
  let step = { E.us_label = "replace c"; us_index = 2; us_total = 5 } in
  [ (E.Ctl_crash_armed 3,
      "fault", "controller crash armed after control-log append 3");
    (E.Ctl_crashed 4, "fault", "controller crashed after control-log append 4");
    (E.Ctl_restarted, "recover", "controller restarted");
    (E.Corruption_armed "c", "fault", "image corruption armed for c");
    (E.Corruption_injected "c", "fault", "injected image corruption: c");
    (E.Quarantined { instance = "c"; bytes = 120; reason = "bad crc" },
      "quarantine", "image from c quarantined (120 byte(s)): bad crc");
    (E.Crash_ignored "zz", "audit", "crash injection ignored: no instance zz");
    (E.Crashed { instance = "b"; reason = "division by zero" },
      "crash", "b crashed: division by zero");
    (E.Host_crash_ignored "hostB",
      "audit", "host crash ignored: hostB already down");
    (E.Host_crashed "hostB", "fault", "host hostB crashed");
    (E.Host_crash_lost { instance = "c"; count = 2 },
      "queue", "c lost 2 queued message(s) in host crash");
    (E.Host_recovered "hostB", "fault", "host hostB recovered");
    (E.Host_recovery_ignored "hostA",
      "audit", "host recovery ignored: hostA is up");
    (E.Halted "sensor", "halt", "sensor halted");
    (E.Bind_added { src = ("a", "out"); dst = ("b", "in") },
      "bind", "add a.out -> b.in");
    (E.Bind_deleted { src = ("a", "out"); dst = ("b", "in") },
      "bind", "del a.out -> b.in");
    (E.Drain_started "s1",
      "drain", "s1 draining: new deliveries shed to siblings");
    (E.Drain_ended "s1", "drain", "s1 admitting again");
    (E.Drain_redirect { instance = "s1"; iface = "req"; target = "s3" },
      "drain", "redirect s1.req -> s3.req (draining)");
    (E.Dead_destination ("gone", "in"),
      "drop", "message for dead instance gone.in");
    (E.Host_down_delivery { dst = ("c", "in"); host = "hostB" },
      "fault", "delivery to c.in failed: host hostB is down");
    (E.Queue_copied { src = ("c", "in"); dst = ("c2", "in"); count = 3 },
      "queue", "cq c.in -> c2.in (3 message(s))");
    (E.Queue_removed { ep = ("c", "in"); count = 0 },
      "queue", "rmq c.in (0 message(s))");
    (E.In_flight_lost ("a", "out"),
      "drop", "in-flight message from a.out lost");
    (E.Injected_loss { src = ("a", "out"); dst = ("b", "in") },
      "fault", "injected loss: a.out -> b.in");
    (E.Injected_duplicate { src = ("a", "out"); dst = ("b", "in") },
      "fault", "injected duplicate: a.out -> b.in");
    (E.Unbound ("a", "log"), "drop", "a.log has no binding; message discarded");
    (E.Dead_sender ("w0", "out"),
      "drop", "w0.out sent after w0 was removed; message discarded");
    (E.Print { instance = "display"; line = "avg(4) = 7" },
      "print", "display: avg(4) = 7");
    (E.Divulged { instance = "compute"; records = 3; bytes = 212 },
      "state", "compute divulged 3 record(s), 212 byte(s)");
    ( E.Started
        { instance = "c2";
          module_name = "compute";
          host = "hostB";
          status = "clone" },
      "lifecycle", "c2 (compute) started on hostB as clone");
    (E.Snapshot_cloned { of_instance = "c"; instance = "c'"; host = "hostC" },
      "lifecycle", "c snapshot-cloned as c' on hostC");
    (E.Kill_ignored "zz", "audit", "kill ignored: no instance zz");
    (E.Removed "compute", "lifecycle", "compute removed");
    (E.Removed_pending_divulge "compute",
      "state", "compute removed with a pending divulge callback; cancelled");
    (E.Removed_undelivered { instance = "compute"; count = 5 },
      "queue", "compute removed with 5 undelivered message(s)");
    (E.Wake_ignored_unknown "zz", "audit", "wake ignored: no instance zz");
    (E.Wake_ignored_stopped "b", "audit", "wake ignored: b already stopped");
    (E.Signalled "compute", "signal", "reconfiguration signal -> compute");
    (E.Divulge_dead_discarded "zz",
      "audit", "divulge callback for dead instance zz discarded");
    (E.Divulge_stopped_discarded "b",
      "audit", "divulge callback for b discarded: already stopped");
    (E.Divulge_cancel_ignored "zz",
      "audit", "divulge cancel ignored: no instance zz");
    (E.Divulge_cancelled "compute",
      "state", "divulge callback for compute cancelled");
    (E.Image_dead_discarded "zz",
      "audit", "state image for dead instance zz discarded");
    (E.Image_stopped_discarded "b",
      "audit", "state image for b discarded: already stopped");
    (E.Deposited "c2", "state", "state image deposited into c2");
    (E.Channel_opened { src = ("s1", "out"); dst = ("rsink", "in") },
      "retx", "channel s1.out -> rsink.in opened");
    ( E.Fenced_frame
        { src = ("s1", "out");
          dst = ("rsink", "in");
          epoch = 0;
          current = 1;
          seq = 7 },
      "retx",
      "fenced stale frame on s1.out -> rsink.in: epoch 0 (current 1), seq 7");
    ( E.Dup_suppressed
        { src = ("s1", "out"); dst = ("rsink", "in"); seq = 4; expected = 6 },
      "retx", "dup suppressed on s1.out -> rsink.in: seq 4 (expected 6)");
    (E.Retx_limit { src = ("s1", "out"); dst = ("rsink", "in"); rounds = 3 },
      "retx", "retx limit reached on s1.out -> rsink.in: 3 round(s), pausing");
    ( E.Retransmit
        { src = ("s1", "out");
          dst = ("rsink", "in");
          seq = 12;
          epoch = 1;
          rto = 4.125 },
      "retx", "retransmit on s1.out -> rsink.in: seq 12 (epoch 1, rto 4.12)");
    ( E.Fast_retransmit
        { src = ("s1", "out"); dst = ("rsink", "in"); seq = 13; epoch = 1 },
      "retx", "fast retransmit on s1.out -> rsink.in: seq 13 (epoch 1)");
    ( E.Channels_transferred
        { count = 2;
          old_instance = "s1";
          new_instance = "s1~1";
          fenced = true },
      "retx", "2 channel(s) of s1 transferred to s1~1 (fenced)");
    ( E.Channels_transferred
        { count = 1;
          old_instance = "s1";
          new_instance = "s1@1.1";
          fenced = false },
      "retx", "1 channel(s) of s1 transferred to s1@1.1");
    (E.Undo_in_service { step; instance = "c" },
      "rollback", "replace c [2/5]: c already back in service");
    ( E.Undo_restore_failed
        { step; instance = "c"; host = "hostB"; error = "host hostB is down" },
      "rollback",
      "replace c [2/5]: FAILED to restore instance c on hostB: host hostB is \
       down");
    (E.Undo_restored { step; instance = "c" },
      "rollback", "replace c [2/5]: restored instance c");
    (E.Undo_route_removed { step; src = ("b", "out"); dst = ("c2", "in") },
      "rollback", "replace c [2/5]: removed route b.out -> c2.in");
    (E.Undo_route_restored { step; src = ("b", "out"); dst = ("c", "in") },
      "rollback", "replace c [2/5]: restored route b.out -> c.in");
    (E.Undo_queue_returned { step; count = 2; ep = ("c", "in") },
      "rollback", "replace c [2/5]: returned 2 message(s) to c.in");
    (E.Undo_queue_refilled { step; ep = ("c", "in"); count = 1 },
      "rollback", "replace c [2/5]: refilled c.in with 1 message(s)");
    (E.Undo_spawn_removed { step; instance = "c2" },
      "rollback", "replace c [2/5]: removed half-started instance c2");
    (E.Undo_divulge_disarmed { step; instance = "c" },
      "rollback", "replace c [2/5]: disarmed divulge callback for c");
    ( E.Undo_transport_returned
        { step; from_instance = "c2"; to_instance = "c" },
      "rollback", "replace c [2/5]: returned reliable channels of c2 to c");
    (E.Undo_host_down { step; instance = "c"; host = "hostB" },
      "rollback", "replace c [2/5]: cannot restore c: host hostB is down");
    ( E.Rollback_started
        { label = "replace c"; total = 5; reason = "deadline expired" },
      "rollback", "replace c: rolling back 5 step(s): deadline expired");
    ( E.Rollback_resumed
        { label = "replace c";
          at = 3;
          total = 5;
          reason = "controller crashed" },
      "rollback",
      "replace c: resuming rollback at step 3/5: controller crashed");
    (E.Replay_started { records = 14; scripts = 2; unterminated = 1 },
      "recover", "replaying 14 control record(s): 2 script(s), 1 unterminated");
    (E.Replay_completed 15,
      "recover", "recovery complete: log checkpointed at lsn 15");
    (E.Slot_moved { slot = "s2"; from_instance = "s2"; to_instance = "s2~1" },
      "rolling", "slot s2: supervisor moved s2 -> s2~1 mid-wave");
    (E.Slot_drain_timeout { slot = "s2"; instance = "s2" },
      "rolling", "slot s2: drain timeout on s2, moving leftovers");
    (E.Slot_crash_wait { slot = "s2"; instance = "s2" },
      "rolling", "slot s2: s2 crashed; waiting for its supervised restart");
    (E.Slot_attempt { slot = "s2"; attempt = 1; attempts = 3 },
      "rolling", "slot s2: attempt 1 of 3");
    ( E.Slot_attempt_failed
        { slot = "s2"; attempt = 2; reason = "canary failed"; backoff = 0.5 },
      "rolling", "slot s2: attempt 2 failed (canary failed), backing off 0.5");
    (E.Slot_exhausted { slot = "s2"; reason = "canary failed" },
      "rolling", "slot s2: out of attempts (canary failed)");
    (E.Canary_holding { slot = "s2"; canary = "s2@1.2"; window = 16. },
      "rolling", "slot s2: canary s2@1.2 holding for 16");
    (E.Canary_passed { slot = "s2"; samples = 8; canary = "s2@1.2" },
      "rolling", "slot s2: canary passed (8 sample(s)), now s2@1.2");
    ( E.Canary_failed
        { slot = "s2"; reason = "error rate 1.00 > 0.01"; origin = "s2" },
      "rolling",
      "slot s2: canary failed (error rate 1.00 > 0.01), rolling back to s2");
    (E.Slot_unwound { slot = "s1"; origin = "rstore"; instance = "s1@1.4" },
      "rolling", "slot s1: unwound to rstore (s1@1.4)");
    (E.Slot_unwind_failed { slot = "s1"; error = "no instance" },
      "rolling", "slot s1: unwind failed: no instance");
    (E.Wave_started { wid = 1; slots = 3; target = "rstorev2" },
      "rolling", "wave #1: 3 slot(s) -> rstorev2");
    (E.Wave_committed 1, "rolling", "wave #1 committed");
    (E.Wave_aborting { wid = 2; reason = "slot s2 out of attempts" },
      "rolling", "wave #2 aborting: slot s2 out of attempts");
    (E.Wave_aborted { wid = 2; unwound = 1 },
      "rolling", "wave #2 aborted: 1 slot(s) unwound");
    ( E.Replace_retry
        { instance = "c";
          attempt = 1;
          error = "spawn failed";
          next_host = Some "hostC";
          backoff = 2.25 },
      "script",
      "replace c: attempt 1 failed (spawn failed); retrying on hostC in 2.2");
    ( E.Replace_retry
        { instance = "c";
          attempt = 2;
          error = "spawn failed";
          next_host = None;
          backoff = 1. },
      "script", "replace c: attempt 2 failed (spawn failed); retrying in 1.0");
    ( E.Replace_started
        { instance = "compute";
          old_module = "compute";
          old_host = "hostA";
          new_instance = "c2";
          new_module = "compute";
          new_host = "hostB" },
      "script", "replace compute: compute on hostA -> c2: compute on hostB");
    (E.Replace_divulge_ignored "c",
      "script", "replace c: divulge ignored: controller is down");
    (E.Replace_completed { instance = "compute"; new_instance = "c2" },
      "script", "replace compute -> c2 complete");
    (E.Precopy_armed "d", "script", "replace d: pre-copy armed at next point");
    (E.Replace_deadline { instance = "c"; window = 25. },
      "script", "replace c: deadline (25.0) expired before divulge");
    (E.Replicate_started { instance = "kv"; replica = "kv2"; host = "hostB" },
      "script", "replicate kv -> kv2 on hostB");
    (E.Replicate_completed { instance = "kv"; replica = "kv2" },
      "script", "replicate kv -> kv2 complete");
    ( E.Stateless_started
        { instance = "w1";
          new_instance = "w1b";
          module_name = "worker";
          host = "hostC" },
      "script", "replace-stateless w1 -> w1b: worker on hostC");
    (E.Stateless_completed { instance = "w1"; new_instance = "w1b" },
      "script", "replace-stateless w1 -> w1b complete");
    (E.Suspect_cleared "s1", "suspect", "s1 cleared: fresh liveness evidence");
    (E.Stale_heartbeat "s1",
      "suspect", "s1: stale-generation heartbeat dropped");
    (E.Suspected { instance = "s1"; silence = 6.25; level = 2 },
      "suspect", "s1 suspected: silent for 6.2 (level 2)");
    (E.Restart_gave_up { instance = "s1"; restarts = 3 },
      "supervisor", "giving up on s1 after 3 restart(s) (still suspected)");
    ( E.Restarted
        { old_instance = "s1";
          new_instance = "s1~1";
          host = "hostA";
          restart = 1;
          max_restarts = 3 },
      "supervisor", "restarted s1 as s1~1 on hostA (restart 1 of 3)");
    (E.Restart_failed { instance = "s1"; error = "host hostA is down" },
      "supervisor", "failed to restart s1: host hostA is down");
    (E.Adopted { instance = "s1@1.1"; base = "s1" },
      "supervisor", "adopting s1@1.1 as the current generation of s1") ]

let test_trace_event_pins () =
  List.iter
    (fun (ev, category, detail) ->
      Alcotest.(check (pair string string))
        detail (category, detail)
        (E.category ev, E.render ev))
    trace_event_pins

let () =
  Alcotest.run "sim"
    [ ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "rejects bad bound" `Quick test_prng_int_rejects_nonpositive;
          Alcotest.test_case "copy" `Quick test_prng_copy_independent;
          Alcotest.test_case "split" `Quick test_prng_split ] );
      ( "pqueue",
        [ Alcotest.test_case "orders by time" `Quick test_pqueue_orders_by_time;
          Alcotest.test_case "ties by seq" `Quick test_pqueue_ties_by_seq;
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
          Alcotest.test_case "clear" `Quick test_pqueue_clear;
          Alcotest.test_case "pop releases payloads" `Quick
            test_pqueue_releases_popped;
          Alcotest.test_case "clear releases payloads" `Quick
            test_pqueue_clear_releases;
          prop_pqueue_sorts ] );
      ( "engine",
        [ Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "max events" `Quick test_engine_max_events;
          Alcotest.test_case "negative delay clamped" `Quick
            test_engine_negative_delay_clamped;
          Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "cancel leaves the pool" `Quick
            test_engine_cancel_pooled;
          Alcotest.test_case "cancel in the heap" `Quick test_engine_cancel_heap;
          Alcotest.test_case "cancel twice or late" `Quick
            test_engine_cancel_idempotent;
          Alcotest.test_case "NaN time refused" `Quick test_engine_rejects_nan;
          Alcotest.test_case "NaN horizon refused" `Quick
            test_engine_run_rejects_nan;
          prop_engine_order ] );
      ( "trace",
        [ Alcotest.test_case "records and filters" `Quick
            test_trace_records_and_filters;
          prop_trace_since;
          Alcotest.test_case "every event renders as before" `Quick
            test_trace_event_pins ] ) ]
