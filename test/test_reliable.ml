(* Reliable delivery, failure detection, and state-image integrity.

   The reliable layer must mask injected loss and duplication (tokens
   arrive exactly once), survive renames with its sequence state, and
   fence the frames of a displaced generation. The detector must
   suspect a silent instance from bus evidence alone and stay quiet
   while evidence flows. The codec's checksum must catch an injected
   image corruption, quarantine the image, and let the script's retry
   complete the replacement. *)

module Bus = Dr_bus.Bus
module Faults = Dr_bus.Faults
module Reliable = Dr_bus.Reliable
module Detector = Dr_reconfig.Detector
module Supervisor = Dr_reconfig.Supervisor
module Script = Dr_reconfig.Script
module Ring = Dr_workloads.Ring
module Monitor = Dr_workloads.Monitor

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let trace_has bus ~category ~detail =
  List.exists
    (fun (e : Dr_sim.Trace.entry) ->
      String.equal e.category category && contains detail e.detail)
    (Dr_sim.Trace.entries (Bus.trace bus))

(* Drain: let every outstanding retransmission land on a fault-free
   network before judging the tap history. *)
let drain bus ~for_:dt =
  Faults.install bus ~seed:1 Faults.no_faults;
  Bus.run ~until:(Bus.now bus +. dt) bus

(* ------------------------------------------------------- loss masking *)

let test_loss_masked () =
  let system = Ring.load () in
  let bus = Ring.start system in
  let r = Reliable.attach bus in
  Reliable.enable_all r;
  Faults.install bus ~seed:3
    (Faults.plan ~rules:[ Faults.rule ~loss:0.25 () ] ());
  Bus.run ~until:40.0 bus;
  drain bus ~for_:30.0;
  let history = Ring.tap_history bus in
  Alcotest.(check bool) "made progress" true (List.length history >= 10);
  Alcotest.(check bool) "exactly-once under 25% loss" true
    (Ring.history_exactly_once history);
  Alcotest.(check bool) "losses were actually injected" true
    (trace_has bus ~category:"fault" ~detail:"injected loss");
  Alcotest.(check bool) "retransmissions happened" true
    (Reliable.total_retx r > 0
    && trace_has bus ~category:"retx" ~detail:"retransmit")
(* no unacked-count check here: the members are still producing when the
   run stops, so a fresh frame is legitimately in flight — the
   quiescent-sender fence test pins [total_unacked = 0] *)

(* -------------------------------------------------------- dup masking *)

let pulse_sink_bus ?(mc = false) ~pulse_source () =
  let bus = Bus.create ~hosts:Monitor.hosts () in
  if mc then Dr_sim.Engine.mc_enable (Bus.engine bus);
  let register source =
    match Bus.register_program bus (Support.parse source) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "register: %s" e
  in
  register pulse_source;
  register
    "module sink;\n\
     proc main() { var t: int; mh_init(); while (true) { mh_read(\"in\", t); \
     print(t); } }";
  let spawn instance host =
    match Bus.spawn bus ~instance ~module_name:instance ~host () with
    | Ok () -> ()
    | Error e -> Alcotest.failf "spawn: %s" e
  in
  spawn "pulse" "hostA";
  spawn "sink" "hostB";
  Bus.add_route bus ~src:("pulse", "out") ~dst:("sink", "in");
  bus

let test_dup_masked () =
  let bus =
    pulse_sink_bus
      ~pulse_source:
        "module pulse;\n\
         proc main() { var i: int; mh_init(); i = 0; while (i < 3) { i = i + \
         1; mh_write(\"out\", i); sleep(1); } }"
      ()
  in
  let r = Reliable.attach bus in
  Reliable.enable_all r;
  (* every frame and ack is duplicated in flight *)
  Faults.install bus ~seed:5 (Faults.plan ~rules:[ Faults.rule ~dup:1.0 () ] ());
  Bus.run ~until:30.0 bus;
  Alcotest.(check (list string)) "each value printed once, in order"
    [ "1"; "2"; "3" ]
    (Bus.outputs bus ~instance:"sink");
  Alcotest.(check bool) "duplicates suppressed by the receiver" true
    (trace_has bus ~category:"retx" ~detail:"dup suppressed")

(* ------------------------------------------- retransmission policy *)

(* The pulse writes 1..80, one value every 0.55 vms (the sleep plus the
   loop's instructions) for 44 vms, over the 2-vms round trip of
   [pulse_sink_bus]: about four frames are in flight when an ack
   returns. After a loss the third duplicate ack then arrives 3.65 vms
   after the lost frame left, ahead of the deadline the last progress
   set (5.45 vms after it). At one write per vms the deadline would come
   first. *)
let stream_source =
  "module pulse;\n\
   proc main() { var i: int; mh_init(); i = 0; while (i < 80) { i = i + \
   1; mh_write(\"out\", i); sleep(0.5); } }"

let stream_values = List.init 80 (fun i -> string_of_int (i + 1))

let count_events bus p =
  List.length
    (List.filter (fun (_, e) -> p e) (Dr_sim.Trace.events (Bus.trace bus)))

let fast_retransmits bus =
  count_events bus (function
    | Dr_sim.Trace_event.Fast_retransmit _ -> true
    | _ -> false)

(* Run the stream, dropping the data frames [drop] picks: it sees the
   bus and how many data frames have been sent so far, this one
   included. Acks always arrive. *)
let run_stream ~drop =
  let bus = pulse_sink_bus ~pulse_source:stream_source () in
  let r = Reliable.attach bus in
  Reliable.enable_all r;
  let frames = ref 0 in
  Faults.explorable bus ~decide:(fun ~src ~dst:_ ->
      if src = ("pulse", "out") then begin
        incr frames;
        if drop bus !frames then Bus.Drop else Bus.Deliver
      end
      else Bus.Deliver);
  Bus.run ~until:90.0 bus;
  Alcotest.(check (list string)) "each value printed once, in order"
    stream_values
    (Bus.outputs bus ~instance:"sink");
  Alcotest.(check int) "nothing left unacked" 0 (Reliable.total_unacked r);
  (bus, r)

let test_lossless_stream_resends_nothing () =
  (* every ack moves the cursor before the deadline it set last *)
  let bus, r = run_stream ~drop:(fun _ _ -> false) in
  Alcotest.(check int) "no retransmission" 0 (Reliable.total_retx r);
  Alcotest.(check bool) "no duplicate suppressed" false
    (trace_has bus ~category:"retx" ~detail:"dup suppressed")

let test_one_lost_frame_fast_retransmit () =
  let bus, r = run_stream ~drop:(fun _ n -> n = 5) in
  Alcotest.(check int) "one retransmission" 1 (Reliable.total_retx r);
  Alcotest.(check int) "one fast retransmit" 1 (fast_retransmits bus);
  Alcotest.(check bool) "no duplicate suppressed" false
    (trace_has bus ~category:"retx" ~detail:"dup suppressed")

let test_lost_fast_retransmit_times_out () =
  (* the fast retransmission is the first data frame sent after its
     trace record *)
  let resent = ref None in
  let drop bus n =
    if !resent = None && fast_retransmits bus = 1 then resent := Some n;
    n = 5 || !resent = Some n
  in
  let bus, r = run_stream ~drop in
  Alcotest.(check bool) "the fast retransmission was dropped" true
    (Option.is_some !resent);
  Alcotest.(check int) "the timeout resent the lost frame" 1
    (count_events bus (function
      | Dr_sim.Trace_event.Retransmit { seq = 4; _ } -> true
      | _ -> false));
  Alcotest.(check bool) "and the frames after it: go-back-N" true
    (Reliable.total_retx r > 2)

(* The lost frame, its fast retransmission and its go-back-N copy are
   all dropped. The receiver keeps repeating the cursor below the hole
   as later frames arrive; the timeout restarted the duplicate-ack
   count, so the third of those acks fast-retransmits the hole again
   instead of leaving it to the backed-off timer (8 vms). *)
let test_go_back_n_restarts_dup_ack_count () =
  let resent_of_4 bus =
    count_events bus (function
      | Dr_sim.Trace_event.Retransmit { seq = 4; _ } -> true
      | _ -> false)
  in
  let fast = ref None and back = ref None in
  let drop bus n =
    if !fast = None && fast_retransmits bus = 1 then fast := Some n;
    if !back = None && resent_of_4 bus = 1 then back := Some n;
    n = 5 || !fast = Some n || !back = Some n
  in
  let bus, _ = run_stream ~drop in
  Alcotest.(check bool) "the go-back-N copy was dropped" true
    (Option.is_some !back);
  Alcotest.(check int) "the hole went back once" 1 (resent_of_4 bus);
  Alcotest.(check int) "and was fast-retransmitted twice" 2
    (count_events bus (function
      | Dr_sim.Trace_event.Fast_retransmit { seq = 4; _ } -> true
      | _ -> false))

(* Two values, both frames lost; the timeout goes back N at T and backs
   off to 8 vms, and of its two resends only the first gets through.
   Its ack returns a round trip (2 vms) later, moves the cursor and
   restarts the timer with the initial 4 vms, so the second frame goes
   out again at T + 6, not at T + 8 where the backed-off timer was
   due. *)
let test_progress_after_backoff_restarts_timer () =
  let bus =
    pulse_sink_bus
      ~pulse_source:
        "module pulse;\n\
         proc main() { mh_init(); mh_write(\"out\", 1); sleep(1); \
         mh_write(\"out\", 2); while (true) { sleep(50); } }"
      ()
  in
  let r = Reliable.attach bus in
  Reliable.enable_all r;
  let frames = ref 0 in
  Faults.explorable bus ~decide:(fun ~src ~dst:_ ->
      if src = ("pulse", "out") then begin
        incr frames;
        if List.mem !frames [ 1; 2; 4 ] then Bus.Drop else Bus.Deliver
      end
      else Bus.Deliver);
  Bus.run ~until:40.0 bus;
  Alcotest.(check (list string)) "each value printed once, in order"
    [ "1"; "2" ]
    (Bus.outputs bus ~instance:"sink");
  Alcotest.(check int) "nothing left unacked" 0 (Reliable.total_unacked r);
  match
    List.filter_map
      (function
        | time, Dr_sim.Trace_event.Retransmit { seq = 1; rto; _ } ->
          Some (time, rto)
        | _ -> None)
      (Dr_sim.Trace.events (Bus.trace bus))
  with
  | [ (first, rto_first); (second, rto_second) ] ->
    Alcotest.(check (float 1e-9)) "first resend after a whole RTO" 4.0
      rto_first;
    Alcotest.(check (float 1e-9)) "second resend a round trip + RTO later"
      6.0 (second -. first);
    Alcotest.(check (float 1e-9)) "progress reset the backoff" 4.0
      rto_second
  | l -> Alcotest.failf "expected two resends of seq 1, got %d" (List.length l)

(* In model-checking mode a channel's timer events are transitions the
   explorer must schedule, so a channel holds exactly one while frames
   are outstanding and none once its window empties. The pulse sends
   two frames in one quantum; every event but the timers fires in pool
   order, so the first ack moves the cursor with a frame left and the
   second empties the window. *)
let test_mc_one_timer_per_channel () =
  let bus =
    pulse_sink_bus ~mc:true
      ~pulse_source:
        "module pulse;\n\
         proc main() { mh_init(); mh_write(\"out\", 1); mh_write(\"out\", \
         2); }"
      ()
  in
  let r = Reliable.attach bus in
  Reliable.enable_all r;
  let engine = Bus.engine bus in
  let is_timer (pe : Dr_sim.Engine.pending_event) =
    String.equal pe.pe_label.lb_kind "timer"
  in
  let seen = ref [] in
  let rec drive () =
    let pool = Dr_sim.Engine.mc_pending engine in
    match List.find_opt (fun pe -> not (is_timer pe)) pool with
    | None -> ()
    | Some pe ->
      ignore (Dr_sim.Engine.mc_fire engine ~seq:pe.pe_seq);
      let state =
        ( Reliable.total_unacked r,
          List.length
            (List.filter is_timer (Dr_sim.Engine.mc_pending engine)) )
      in
      if not (List.mem state !seen) then seen := state :: !seen;
      drive ()
  in
  drive ();
  Alcotest.(check (list string)) "both values delivered" [ "1"; "2" ]
    (Bus.outputs bus ~instance:"sink");
  Alcotest.(check (list (pair int int)))
    "(unacked, pooled timers): one timer per window, none once empty"
    [ (2, 1); (1, 1); (0, 0) ]
    (List.rev !seen)

(* ---------------------------------------------------- epoch fencing *)

let test_fence_discards_stale_frames () =
  (* One frame is in flight (hostA -> hostB latency is 1.0) when the
     sender is renamed with a fence: the old-epoch frame must arrive
     inert, and the surviving retransmission timer must redeliver it
     under the new epoch — exactly one copy reaches the sink. *)
  let bus =
    pulse_sink_bus
      ~pulse_source:
        "module pulse;\n\
         proc main() { mh_init(); mh_write(\"out\", 7); while (true) { \
         sleep(5); } }"
      ()
  in
  let r = Reliable.attach bus in
  Reliable.enable_all r;
  Bus.run ~until:0.5 bus;
  Bus.transport_rename bus ~old_instance:"pulse" ~new_instance:"pulse~1"
    ~fence:true;
  Bus.run ~until:30.0 bus;
  Alcotest.(check (list string)) "delivered exactly once" [ "7" ]
    (Bus.outputs bus ~instance:"sink");
  Alcotest.(check bool) "stale frame fenced" true
    (trace_has bus ~category:"retx" ~detail:"fenced stale frame");
  Alcotest.(check bool) "redelivered by retransmission" true
    (trace_has bus ~category:"retx" ~detail:"retransmit");
  Alcotest.(check int) "nothing left unacked" 0 (Reliable.total_unacked r)

(* --------------------------------- exactly-once replace (acceptance) *)

type sweep_scenario = {
  sw_name : string;
  sw_dup : float;
  sw_jitter : float;
  sw_hot_route : bool;
  sw_double : bool;
}

let sweep_scenarios =
  [ { sw_name = "uniform loss"; sw_dup = 0.0; sw_jitter = 0.0;
      sw_hot_route = false; sw_double = false };
    { sw_name = "loss + dup"; sw_dup = 0.10; sw_jitter = 0.0;
      sw_hot_route = false; sw_double = false };
    { sw_name = "loss + jitter"; sw_dup = 0.0; sw_jitter = 0.5;
      sw_hot_route = false; sw_double = false };
    { sw_name = "loss + dup + jitter"; sw_dup = 0.10; sw_jitter = 0.5;
      sw_hot_route = false; sw_double = false };
    { sw_name = "hot route b>c"; sw_dup = 0.0; sw_jitter = 0.0;
      sw_hot_route = true; sw_double = false };
    { sw_name = "double replace"; sw_dup = 0.05; sw_jitter = 0.0;
      sw_hot_route = false; sw_double = true } ]

let sweep_losses = [ 0.0; 0.05; 0.10; 0.15; 0.20 ]

let replace_sync bus ~instance ~new_instance =
  Script.run_sync bus ~deadline:150.0 (fun ~on_done ->
      Script.replace bus ~instance ~new_instance ~deadline:60.0
        ~retry:{ Script.attempts = 3; backoff = 5.0; alt_hosts = [] }
        ~on_done ())

let test_exactly_once_replace_sweep () =
  (* Acceptance: at every loss rate up to 20%, across six fault
     scenarios, a reconfiguration over reliable routes completes and
     the receiver log is exactly-once — no gap, no duplicate. *)
  List.iter
    (fun scenario ->
      List.iter
        (fun loss ->
          let label what =
            Printf.sprintf "%s @ %.0f%%: %s" scenario.sw_name (100.0 *. loss)
              what
          in
          let system = Ring.load () in
          let bus = Ring.start system in
          let r = Reliable.attach bus in
          Reliable.enable_all r;
          let rules =
            (if scenario.sw_hot_route then
               [ Faults.rule ~src:"b" ~dst:"c"
                   ~loss:(Float.min 1.0 (2.0 *. loss))
                   ~dup:scenario.sw_dup () ]
             else [])
            @ [ Faults.rule ~loss ~dup:scenario.sw_dup () ]
          in
          Faults.install bus ~seed:3
            (Faults.plan ~rules ~jitter:scenario.sw_jitter ());
          Bus.run ~until:8.0 bus;
          let outcome = replace_sync bus ~instance:"c" ~new_instance:"c2" in
          let outcome =
            if scenario.sw_double && Result.is_ok outcome then
              replace_sync bus ~instance:"b" ~new_instance:"b2"
            else outcome
          in
          (match outcome with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s" (label ("failed: " ^ e)));
          drain bus ~for_:40.0;
          let history = Ring.tap_history bus in
          Alcotest.(check bool) (label "progress") true
            (List.length history > 0);
          Alcotest.(check bool) (label "exactly-once") true
            (Ring.history_exactly_once history))
        sweep_losses)
    sweep_scenarios

(* --------------------------------------------------- failure detector *)

let test_detector_suspects_crashed_instance () =
  let system = Ring.load () in
  let bus = Ring.start system in
  Faults.install bus ~seed:1
    (Faults.plan ~events:[ (5.0, Faults.Process_crash "c") ] ());
  Bus.set_detector_config bus
    { Bus.dc_period = 1.0; dc_timeout = 2.0; dc_threshold = 2 };
  let d = Detector.start bus ~watch:[ "c" ] in
  Bus.run ~until:4.0 bus;
  Alcotest.(check bool) "not suspected while alive" false
    (Detector.suspected d ~instance:"c");
  Bus.run ~until:15.0 bus;
  Alcotest.(check bool) "suspected after the crash" true
    (Detector.suspected d ~instance:"c");
  Alcotest.(check bool) "suspicion traced" true
    (trace_has bus ~category:"suspect" ~detail:"c suspected");
  Detector.stop d

let test_detector_activity_is_evidence () =
  (* Heartbeats from c are starved, but c's data traffic (one token
     pass every ~5.1 time units) still crosses the bus; with a timeout
     wider than the token period that evidence must keep c clear. *)
  let system = Ring.load () in
  let bus = Ring.start system in
  Faults.install bus ~seed:1
    (Faults.plan
       ~rules:[ Faults.rule ~src:"c" ~dst:"_detector" ~loss:1.0 () ]
       ());
  Bus.set_detector_config bus
    { Bus.dc_period = 1.0; dc_timeout = 6.0; dc_threshold = 2 };
  let d = Detector.start bus ~watch:[ "c" ] in
  Bus.run ~until:30.0 bus;
  Alcotest.(check bool) "never suspected" false
    (Detector.suspected d ~instance:"c");
  Alcotest.(check bool) "no suspicion trace" false
    (trace_has bus ~category:"suspect" ~detail:"c suspected");
  Detector.stop d

let test_false_suspicion_fenced_restart () =
  (* Acceptance: only c's heartbeats are lost, so the detector's
     suspicion is a false positive — c is alive when the supervisor
     replaces it. The fenced rename must keep the displaced
     generation's output inert: the tap history stays exactly-once. *)
  let system = Ring.load () in
  let bus = Ring.start system in
  let r = Reliable.attach bus in
  Reliable.enable_all r;
  Faults.install bus ~seed:2
    (Faults.plan
       ~rules:[ Faults.rule ~src:"c" ~dst:"_detector" ~loss:1.0 () ]
       ());
  Bus.set_detector_config bus
    { Bus.dc_period = 0.5; dc_timeout = 1.0; dc_threshold = 1 };
  let d = Detector.start bus ~watch:[] in
  let sup = Supervisor.start bus ~period:0.5 ~detector:d ~watch:[ "c" ] () in
  Bus.run ~until:20.0 bus;
  Alcotest.(check (option string)) "supervisor replaced the suspect"
    (Some "c~1")
    (Supervisor.current sup ~base:"c");
  Alcotest.(check bool) "c~1 live, c gone" true
    (List.mem "c~1" (Bus.instances bus)
    && not (List.mem "c" (Bus.instances bus)));
  Alcotest.(check bool) "restart traced" true
    (trace_has bus ~category:"supervisor" ~detail:"restarted c as c~1");
  drain bus ~for_:30.0;
  let history = Ring.tap_history bus in
  Alcotest.(check bool) "progress" true (List.length history > 0);
  Alcotest.(check bool)
    "no duplicate, no gap: the fenced loser had no visible effect" true
    (Ring.history_exactly_once history);
  Supervisor.stop sup;
  Detector.stop d

(* ------------------------------------------------ image integrity *)

let displayed bus =
  List.filter_map Monitor.parse_displayed (Bus.outputs bus ~instance:"display")

let run_until_displays bus k =
  Bus.run_while bus ~max_events:2_000_000 (fun () ->
      List.length (displayed bus) < k)

let test_corrupt_image_quarantined_then_retry () =
  let system = Monitor.load () in
  let bus = Monitor.start system in
  Faults.install bus ~seed:1
    (Faults.plan ~events:[ (0.5, Faults.Image_corrupt "compute") ] ());
  run_until_displays bus 2;
  Alcotest.(check bool) "corruption armed" true
    (trace_has bus ~category:"fault" ~detail:"image corruption armed");
  let outcome =
    Script.run_sync bus (fun ~on_done ->
        Script.replace bus ~instance:"compute" ~new_instance:"c2"
          ~retry:{ Script.attempts = 2; backoff = 0.5; alt_hosts = [] }
          ~on_done ())
  in
  (match outcome with
  | Ok fresh -> Alcotest.(check string) "second attempt lands" "c2" fresh
  | Error e -> Alcotest.failf "replace did not recover: %s" e);
  Alcotest.(check bool) "corruption injected" true
    (trace_has bus ~category:"fault" ~detail:"injected image corruption");
  Alcotest.(check bool) "image quarantined, not restored" true
    (trace_has bus ~category:"quarantine" ~detail:"image from compute");
  (match Bus.quarantined bus with
  | [ q ] ->
    Alcotest.(check string) "quarantine names the instance" "compute"
      q.Bus.q_instance;
    Alcotest.(check bool) "reason is the checksum" true
      (contains "checksum" q.Bus.q_reason);
    Alcotest.(check bool) "bytes preserved for audit" true (q.Bus.q_byte_size > 0)
  | l -> Alcotest.failf "expected one quarantined image, got %d" (List.length l));
  Alcotest.(check bool) "attempt 1 rolled back to service" true
    (trace_has bus ~category:"rollback" ~detail:"restored instance compute");
  Alcotest.(check bool) "attempt 1 failure traced" true
    (trace_has bus ~category:"script" ~detail:"attempt 1 failed");
  (* the replacement really serves *)
  let shown = List.length (displayed bus) in
  run_until_displays bus (shown + 2);
  Alcotest.(check bool) "c2 keeps the display fed" true
    (List.length (displayed bus) >= shown + 2)

let test_corrupt_clause_parses () =
  match Faults.parse_plan "corrupt=compute@3" with
  | Ok (_, p) ->
    Alcotest.(check bool) "one corrupt event" true
      (p.Faults.fp_events = [ (3.0, Faults.Image_corrupt "compute") ])
  | Error e -> Alcotest.failf "parse: %s" e

(* -------------------------------------------------- disabled layer *)

let test_disabled_layer_is_inert () =
  (* Without attach, runs are byte-for-byte the classic bus (the golden
     traces pin this globally; here: no retx category ever appears). *)
  let system = Ring.load () in
  let bus = Ring.start system in
  Bus.run ~until:20.0 bus;
  Alcotest.(check bool) "no protocol traffic" false
    (List.exists
       (fun (e : Dr_sim.Trace.entry) -> String.equal e.category "retx")
       (Dr_sim.Trace.entries (Bus.trace bus)));
  Alcotest.(check bool) "token history still consecutive" true
    (Ring.history_consecutive (Ring.tap_history bus))

let () =
  Alcotest.run "reliable"
    [ ( "reliable channels",
        [ Alcotest.test_case "25% loss masked, exactly-once" `Quick
            test_loss_masked;
          Alcotest.test_case "100% duplication suppressed" `Quick
            test_dup_masked;
          Alcotest.test_case "lossless stream resends nothing" `Quick
            test_lossless_stream_resends_nothing;
          Alcotest.test_case "one lost frame, one fast retransmit" `Quick
            test_one_lost_frame_fast_retransmit;
          Alcotest.test_case "lost fast retransmit falls back to the timer"
            `Quick test_lost_fast_retransmit_times_out;
          Alcotest.test_case "go-back-N restarts the duplicate-ack count"
            `Quick test_go_back_n_restarts_dup_ack_count;
          Alcotest.test_case "progress after a backoff restarts the timer"
            `Quick test_progress_after_backoff_restarts_timer;
          Alcotest.test_case "model checking pools one timer per window"
            `Quick test_mc_one_timer_per_channel;
          Alcotest.test_case "fenced rename discards stale frames" `Quick
            test_fence_discards_stale_frames;
          Alcotest.test_case "exactly-once replace, loss 0-20% x 6 scenarios"
            `Quick test_exactly_once_replace_sweep;
          Alcotest.test_case "disabled layer is inert" `Quick
            test_disabled_layer_is_inert ] );
      ( "failure detector",
        [ Alcotest.test_case "suspects a crashed instance" `Quick
            test_detector_suspects_crashed_instance;
          Alcotest.test_case "bus activity counts as evidence" `Quick
            test_detector_activity_is_evidence;
          Alcotest.test_case "false suspicion: fenced restart stays \
                             exactly-once"
            `Quick test_false_suspicion_fenced_restart ] );
      ( "image integrity",
        [ Alcotest.test_case "corrupt image quarantined, retry succeeds"
            `Quick test_corrupt_image_quarantined_then_retry;
          Alcotest.test_case "corrupt= clause parses" `Quick
            test_corrupt_clause_parses ] ) ]
