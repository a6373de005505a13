module Bus = Dr_bus.Bus
module Timeline = Dr_report.Timeline

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let lane_of rendered instance =
  List.find_opt
    (fun line ->
      String.length line > String.length instance
      && String.sub line 0 (String.length instance) = instance)
    (String.split_on_char '\n' rendered)

let test_monitor_timeline () =
  let system = Dr_workloads.Monitor.load () in
  let bus = Dr_workloads.Monitor.start system in
  Bus.run ~until:30.0 bus;
  (match
     Dynrecon.System.migrate bus ~instance:"compute" ~new_instance:"compute2"
       ~new_host:"hostB"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate: %s" e);
  Bus.run ~until:(Bus.now bus +. 20.0) bus;
  let rendered = Timeline.render bus in
  (* all four incarnations have lanes *)
  List.iter
    (fun instance ->
      if lane_of rendered instance = None then
        Alcotest.failf "missing lane for %s" instance)
    [ "display"; "compute"; "sensor"; "compute2" ];
  (* the old compute's lane carries signal and divulge markers, and is
     marked removed *)
  (match lane_of rendered "compute " with
  | Some lane ->
    Alcotest.(check bool) "signal marker" true (contains lane "S");
    Alcotest.(check bool) "divulge marker" true (contains lane "D");
    Alcotest.(check bool) "removed" true (contains lane "removed")
  | None -> Alcotest.fail "no compute lane");
  (* the clone's lane starts with a restore marker and runs on hostB *)
  (match lane_of rendered "compute2" with
  | Some lane ->
    Alcotest.(check bool) "restore marker" true (contains lane "R");
    Alcotest.(check bool) "on hostB" true (contains lane "hostB")
  | None -> Alcotest.fail "no compute2 lane");
  (* the event log mentions the script *)
  Alcotest.(check bool) "script logged" true (contains rendered "replace compute")

let test_no_cross_instance_marker_bleed () =
  (* compute vs compute2: the deposit marker for compute2 must not
     appear on compute's lane *)
  let system = Dr_workloads.Monitor.load () in
  let bus = Dr_workloads.Monitor.start system in
  Bus.run ~until:20.0 bus;
  (match
     Dynrecon.System.migrate bus ~instance:"compute" ~new_instance:"compute2"
       ~new_host:"hostB"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate: %s" e);
  let rendered = Timeline.render bus in
  match lane_of rendered "compute " with
  | Some lane ->
    Alcotest.(check bool) "no R on the old lane" false
      (let bar_part =
         (* strip the trailing annotation after the bar *)
         match String.index_opt lane '(' with
         | Some i -> String.sub lane 0 i
         | None -> lane
       in
       contains bar_part "R")
  | None -> Alcotest.fail "no compute lane"

let test_empty_bus () =
  let bus = Bus.create ~hosts:Dr_workloads.Monitor.hosts () in
  let rendered = Timeline.render bus in
  Alcotest.(check bool) "renders" true (String.length rendered > 0)

let test_crash_marker () =
  let bus = Bus.create ~hosts:Dr_workloads.Monitor.hosts () in
  (match
     Bus.register_program bus
       (Support.parse "module boom;\nproc main() { var i: int; while (i < 50) { i = i + 1; } print(1 / 0); }")
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "register: %s" e);
  (match Bus.spawn bus ~instance:"b" ~module_name:"boom" ~host:"hostA" () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "spawn: %s" e);
  Bus.run bus;
  let rendered = Timeline.render bus in
  match lane_of rendered "b " with
  | Some lane -> Alcotest.(check bool) "X marker" true (contains lane "X")
  | None -> Alcotest.fail "no lane"

(* A replacement onto a taken name fails after the target divulged, so
   the journal brings compute back: its lane carries the rollback
   marker. *)
let test_rollback_marker () =
  let system = Dr_workloads.Monitor.load () in
  let bus = Dr_workloads.Monitor.start system in
  Bus.run ~until:20.0 bus;
  (match
     Dr_reconfig.Script.run_sync bus (fun ~on_done ->
         Dr_reconfig.Script.replace bus ~instance:"compute"
           ~new_instance:"display" ~on_done ())
   with
  | Ok _ -> Alcotest.fail "replacement onto a taken name succeeded"
  | Error _ -> ());
  let rendered = Timeline.render bus in
  match lane_of rendered "compute " with
  | Some lane ->
    let bar =
      match String.index_opt lane '(' with
      | Some i -> String.sub lane 0 i
      | None -> lane
    in
    Alcotest.(check bool) "B marker" true (contains bar "B")
  | None -> Alcotest.fail "no compute lane"

let () =
  Alcotest.run "report"
    [ ( "timeline",
        [ Alcotest.test_case "monitor migration" `Quick test_monitor_timeline;
          Alcotest.test_case "no marker bleed" `Quick
            test_no_cross_instance_marker_bleed;
          Alcotest.test_case "empty bus" `Quick test_empty_bus;
          Alcotest.test_case "crash marker" `Quick test_crash_marker;
          Alcotest.test_case "rollback marker" `Quick test_rollback_marker ] )
    ]
