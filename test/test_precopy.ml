(* Live pre-copy end to end (lib/reconfig/script.ml).

   A pre-copy migrate must wait for the target's next reconfiguration
   point and keep the module serving until the freeze; from the divulge
   on it is the move without pre-copy: the full image goes through
   translation, whatever the layouts, so the corruption fault and the
   quarantine it triggers apply as they do without pre-copy. The wait
   is recorded on the zero-width [precopy] marker, on restored clones
   as on originals. The disruption window opens at the freeze, so the
   signal/drain children are zero-width and the phase identity still
   tiles the root span. *)

module Bus = Dr_bus.Bus
module Script = Dr_reconfig.Script
module Metrics = Dr_obs.Metrics
module Synthetic = Dr_workloads.Synthetic
module I = Dr_transform.Instrument

let hosts =
  [ { Bus.host_name = "hostA"; arch = Dr_state.Arch.x86_64 };
    { Bus.host_name = "hostB"; arch = Dr_state.Arch.sparc32 };
    { Bus.host_name = "hostD"; arch = Dr_state.Arch.x86_64 } ]

let attr span name = List.assoc_opt name (Metrics.span_attrs span)

let child root kind =
  List.find_opt
    (fun s -> String.equal (Metrics.span_kind s) kind)
    (Metrics.span_children root)

let dur span = Option.value ~default:0.0 (Metrics.span_duration span)

(* spawn the instrumented deeprec_payload worker "w" on hostA and let it
   dive *)
let boot () =
  let registry = Metrics.create () in
  let bus = Bus.create ~hosts () in
  Bus.set_metrics bus registry;
  let prepared =
    match
      I.prepare
        (Synthetic.deeprec_payload ~depth:6 ~payload:4)
        ~points:Synthetic.deeprec_points
    with
    | Ok p -> p.I.prepared_program
    | Error e -> Alcotest.failf "instrument: %s" e
  in
  (match Bus.register_program bus prepared with
  | Ok () -> ()
  | Error e -> Alcotest.failf "register: %s" e);
  (match Bus.spawn bus ~instance:"w" ~module_name:"deeppay" ~host:"hostA" () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "spawn: %s" e);
  Bus.run ~until:5.0 bus;
  (bus, registry)

let run_script bus ~instance ~new_instance ~dst ~precopy =
  Script.run_sync bus (fun ~on_done ->
      Script.migrate bus ~precopy ~instance ~new_instance ~new_host:dst
        ~on_done ())

(* migrate [instance] to [dst] as [new_instance], let the clone restore,
   and return the move's migrate span *)
let migrate bus registry ~instance ~new_instance ~dst ~precopy =
  (match run_script bus ~instance ~new_instance ~dst ~precopy with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate: %s" e);
  Bus.run ~until:(Bus.now bus +. 10.0) bus;
  Alcotest.(check bool) "clone is live" true
    (Option.is_some (Bus.machine bus ~instance:new_instance));
  match
    List.filter
      (fun s ->
        String.equal (Metrics.span_kind s) "migrate"
        && attr s "new_instance" = Some new_instance)
      (Metrics.roots registry)
  with
  | [ root ] -> root
  | roots -> Alcotest.failf "expected one migrate span, got %d" (List.length roots)

let run_migrate ~dst ~precopy =
  let bus, registry = boot () in
  migrate bus registry ~instance:"w" ~new_instance:"w2" ~dst ~precopy

let wait_of root =
  match child root "precopy" with
  | None -> Alcotest.fail "no precopy marker"
  | Some pc -> float_of_string (Option.get (attr pc "wait"))

(* the bytes that went into translation and came out of it *)
let translated root =
  match child root "translate" with
  | None -> Alcotest.fail "no translate marker"
  | Some tr ->
    (int_of_string (Option.get (attr tr "bytes_in")),
     int_of_string (Option.get (attr tr "bytes_out")))

(* one marker per pre-copy move: the wait, and the full image through
   translation *)
let check_precopy_move what root =
  Alcotest.(check (option string)) (what ^ ": span marked precopy") (Some "on")
    (attr root "precopy");
  Alcotest.(check bool) (what ^ ": module served before the freeze") true
    (wait_of root > 0.0);
  (match child root "precopy" with
  | Some pc ->
    Alcotest.(check (list string)) (what ^ ": the marker holds the wait only")
      [ "wait" ] (List.map fst (Metrics.span_attrs pc))
  | None -> ());
  Alcotest.(check bool) (what ^ ": no delta marker") true
    (child root "delta" = None);
  let bytes_in, bytes_out = translated root in
  Alcotest.(check int) (what ^ ": the full image ships") bytes_in bytes_out

let test_same_arch_ships_full_image () =
  let root = run_migrate ~dst:"hostD" ~precopy:true in
  check_precopy_move "hostD" root;
  (* freeze-origin accounting: signal and drain collapse to zero width
     and the phase identity still tiles the window *)
  let phase k = match child root k with Some s -> dur s | None -> 0.0 in
  Alcotest.(check (float 1e-9)) "signal zero-width" 0.0 (phase "signal");
  Alcotest.(check (float 1e-9)) "drain zero-width" 0.0 (phase "drain");
  let sum =
    phase "signal" +. phase "drain" +. phase "capture" +. phase "translate"
    +. phase "restore"
  in
  Alcotest.(check (float 1e-9)) "phases tile the window" (dur root) sum

let test_cross_arch_records_wait () =
  check_precopy_move "hostB" (run_migrate ~dst:"hostB" ~precopy:true)

(* a restored clone waits for its point like an original: hostA <->
   hostD (both x86_64) four times, each move shipping an image of the
   same size as the first *)
let test_chained_moves_precopy () =
  let bus, registry = boot () in
  let moves = [ "hostD"; "hostA"; "hostD"; "hostA" ] in
  let roots =
    List.mapi
      (fun k dst ->
        let instance = if k = 0 then "w" else Printf.sprintf "w%d" (k + 1) in
        let new_instance = Printf.sprintf "w%d" (k + 2) in
        migrate bus registry ~instance ~new_instance ~dst ~precopy:true)
      moves
  in
  let first_in = fst (translated (List.hd roots)) in
  List.iteri
    (fun k root ->
      let what = Printf.sprintf "move %d" (k + 1) in
      check_precopy_move what root;
      Alcotest.(check int) (what ^ ": same image size") first_in
        (fst (translated root)))
    roots

(* An armed corruption flips a byte of the image on its way through
   translation; the destination's CRC check must catch it on a
   same-layout pre-copy move as it does on any other, quarantine the
   image and roll the move back with [w] still serving. *)
let test_corruption_quarantines_precopy () =
  let bus, _ = boot () in
  Bus.arm_image_corruption bus ~instance:"w";
  (match run_script bus ~instance:"w" ~new_instance:"w2" ~dst:"hostD"
           ~precopy:true
   with
  | Ok _ -> Alcotest.fail "a corrupted image was restored"
  | Error e ->
    Alcotest.(check bool) ("the checksum caught it: " ^ e) true
      (String.starts_with ~prefix:"state translation failed: checksum mismatch"
         e));
  Alcotest.(check int) "one quarantine" 1 (List.length (Bus.quarantined bus));
  Alcotest.(check bool) "w still live" true
    (Option.is_some (Bus.machine bus ~instance:"w"));
  Alcotest.(check bool) "no clone" true
    (Option.is_none (Bus.machine bus ~instance:"w2"))

let test_off_mode_has_no_markers () =
  let root = run_migrate ~dst:"hostD" ~precopy:false in
  Alcotest.(check (option string)) "no precopy attr" None (attr root "precopy");
  Alcotest.(check bool) "no precopy marker" true (child root "precopy" = None);
  Alcotest.(check bool) "signal phase present" true
    (Option.is_some (child root "signal"))

let () =
  Alcotest.run "precopy"
    [ ( "end to end",
        [ Alcotest.test_case "same-arch ships the full image" `Quick
            test_same_arch_ships_full_image;
          Alcotest.test_case "cross-arch records the wait" `Quick
            test_cross_arch_records_wait;
          Alcotest.test_case "off mode unchanged" `Quick
            test_off_mode_has_no_markers;
          Alcotest.test_case "restored clones pre-copy again" `Quick
            test_chained_moves_precopy;
          Alcotest.test_case
            "armed corruption quarantines a same-layout pre-copy move" `Quick
            test_corruption_quarantines_precopy ] ) ]
