(* Live pre-copy end to end (lib/reconfig/script.ml) and the delta-image
   algebra it rests on (lib/state/image.ml).

   End-to-end: a pre-copy migrate must wait for the target's next
   reconfiguration point, keep the module serving until the freeze, and
   divulge a delta when (and only when) the move is same-layout — only
   then is a live base captured; cross-architecture moves fall back to
   the full image with the reason on the zero-width [delta] marker. A
   restored clone gives a base like an original, so chained moves keep
   shipping deltas. The disruption window opens at the freeze, so the
   signal/drain children are zero-width and the phase identity still
   tiles the root span.

   Property: for any generated image and any rewrite of its slots,
   [apply_delta ~base (diff ~base final)] reconstructs [final] exactly,
   and ships exactly the slots whose value changed. *)

module Bus = Dr_bus.Bus
module Script = Dr_reconfig.Script
module Metrics = Dr_obs.Metrics
module Image = Dr_state.Image
module Value = Dr_state.Value
module Synthetic = Dr_workloads.Synthetic
module I = Dr_transform.Instrument
module G = QCheck2.Gen

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

(* migrate [instance] to [dst] as [new_instance], let the clone restore,
   and return the move's migrate span *)
let migrate bus registry ~instance ~new_instance ~dst ~precopy =
  (match
     Script.run_sync bus (fun ~on_done ->
         Script.migrate bus ~precopy ~instance ~new_instance ~new_host:dst
           ~on_done ())
   with
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
  (bus, migrate bus registry ~instance:"w" ~new_instance:"w2" ~dst ~precopy)

let test_same_arch_ships_delta () =
  let _, root = run_migrate ~dst:"hostD" ~precopy:true in
  Alcotest.(check (option string)) "span marked precopy" (Some "on")
    (attr root "precopy");
  (match child root "precopy" with
  | None -> Alcotest.fail "no precopy marker"
  | Some pc ->
    let records = int_of_string (Option.get (attr pc "base_records")) in
    Alcotest.(check bool) "base captured whole stack" true (records > 6);
    Alcotest.(check bool) "module served before the freeze" true
      (float_of_string (Option.get (attr pc "wait")) > 0.0));
  (match child root "delta" with
  | None -> Alcotest.fail "no delta marker"
  | Some dc ->
    Alcotest.(check (option string)) "no fallback" (Some "none")
      (attr dc "fallback");
    Alcotest.(check bool) "dirty slots shipped" true
      (int_of_string (Option.get (attr dc "delta_slots")) > 0));
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

let delta_of root =
  match child root "delta" with
  | None -> Alcotest.fail "no delta marker"
  | Some dc -> (attr dc "fallback", attr dc "delta_slots")

(* a restored clone must give a base too: hostA <-> hostD (both x86_64)
   four times, each move shipping the same delta as the first *)
let test_chained_moves_ship_deltas () =
  let bus, registry = boot () in
  let moves = [ "hostD"; "hostA"; "hostD"; "hostA" ] in
  let deltas =
    List.mapi
      (fun k dst ->
        let instance = if k = 0 then "w" else Printf.sprintf "w%d" (k + 1) in
        let new_instance = Printf.sprintf "w%d" (k + 2) in
        delta_of
          (migrate bus registry ~instance ~new_instance ~dst ~precopy:true))
      moves
  in
  let first_slots = snd (List.hd deltas) in
  Alcotest.(check bool) "first move ships slots" true
    (int_of_string (Option.get first_slots) > 0);
  List.iteri
    (fun k (fallback, slots) ->
      Alcotest.(check (option string))
        (Printf.sprintf "move %d: no fallback" (k + 1))
        (Some "none") fallback;
      Alcotest.(check (option string))
        (Printf.sprintf "move %d: same delta" (k + 1))
        first_slots slots)
    deltas

let test_cross_arch_falls_back () =
  let bus, root = run_migrate ~dst:"hostB" ~precopy:true in
  let fallback, slots = delta_of root in
  Alcotest.(check (option string)) "cross-arch fallback" (Some "cross_arch")
    fallback;
  Alcotest.(check (option string)) "nothing shipped as delta" (Some "0") slots;
  (* the wait is recorded, but no base is taken for a move that cannot
     use one *)
  (match child root "precopy" with
  | None -> Alcotest.fail "no precopy marker"
  | Some pc ->
    Alcotest.(check bool) "module served before the freeze" true
      (float_of_string (Option.get (attr pc "wait")) > 0.0);
    Alcotest.(check (option string)) "no base records" None
      (attr pc "base_records"));
  Alcotest.(check bool) "no base captured" false
    (List.exists
       (function
         | _, Dr_sim.Trace_event.Precopy_base_captured { instance = "w"; _ } ->
           true
         | _ -> false)
       (Dr_sim.Trace.events (Bus.trace bus)))

let test_off_mode_has_no_markers () =
  let _, root = run_migrate ~dst:"hostD" ~precopy:false in
  Alcotest.(check (option string)) "no precopy attr" None (attr root "precopy");
  Alcotest.(check bool) "no precopy marker" true (child root "precopy" = None);
  Alcotest.(check bool) "no delta marker" true (child root "delta" = None);
  Alcotest.(check bool) "signal phase present" true
    (Option.is_some (child root "signal"))

(* ------------------------------------------------- delta differential *)

let dirty seed i j = (seed + (31 * i) + (7 * j)) mod 3 = 0

(* rewrite the chosen slots of [base] with fresh values, which may equal
   the old ones *)
let mutate seed (base : Image.t) =
  let records =
    List.mapi
      (fun i (r : Image.record) ->
        { r with
          Image.values =
            List.mapi
              (fun j v ->
                if dirty seed i j then Value.Vint (seed + (100 * i) + j) else v)
              r.values })
      base.Image.records
  in
  Image.make ~source_module:base.Image.source_module ~records
    ~heap:base.Image.heap

let qcheck_delta_roundtrip =
  Support.qcheck ~count:300 "apply_delta . diff reconstructs the capture"
    (G.pair Gen.image (G.int_bound 1000))
    (fun (base, seed) ->
      let final = mutate seed base in
      (* a fresh value is an int, so [Value.equal] is exact here *)
      let changed =
        List.fold_left2
          (fun acc (b : Image.record) (f : Image.record) ->
            List.fold_left2
              (fun a bv fv -> if Value.equal bv fv then a else a + 1)
              acc b.Image.values f.Image.values)
          0 base.Image.records final.Image.records
      in
      match Image.diff ~base final with
      | None -> QCheck2.Test.fail_report "diff refused a well-formed pair"
      | Some d -> (
        if List.length d.Image.d_slots <> changed then
          QCheck2.Test.fail_reportf "shipped %d slots for %d changed"
            (List.length d.Image.d_slots)
            changed
        else
          match Image.apply_delta ~base d with
          | None -> QCheck2.Test.fail_report "apply_delta refused its own diff"
          | Some rebuilt -> Image.equal rebuilt final))

let qcheck_delta_wrong_base =
  Support.qcheck ~count:100 "apply_delta refuses a foreign base"
    (G.pair Gen.image (G.int_bound 1000))
    (fun (base, seed) ->
      let final = mutate seed base in
      match Image.diff ~base final with
      | None -> QCheck2.Test.fail_report "diff refused a well-formed pair"
      | Some d ->
        let foreign =
          Image.push_record base
            { Image.location = 99; values = [ Value.Vint 1 ] }
        in
        Image.apply_delta ~base:foreign d = None)

(* ------------------------------------------------- value comparison *)

let int_block cells =
  { Image.elem_ty = Dr_lang.Ast.Tint;
    cells = Array.map (fun i -> Value.Vint i) cells }

let image ?(heap = []) values =
  Image.make ~source_module:"m"
    ~records:[ { Image.location = 1; values } ]
    ~heap

let diff_exn ~base final =
  match Image.diff ~base final with
  | Some d -> d
  | None -> Alcotest.fail "diff refused a same-shaped pair"

let shipped_slots d = List.map (fun (ri, vi, _) -> (ri, vi)) d.Image.d_slots

let test_negative_zero_ships () =
  let d =
    diff_exn
      ~base:(image [ Value.Vint 1; Vfloat 0.0 ])
      (image [ Value.Vint 1; Vfloat (-0.0) ])
  in
  Alcotest.(check (list (pair int int))) "-0.0 ships" [ (0, 1) ]
    (shipped_slots d)

let test_same_value_stays () =
  let base = image [ Value.Vint 7; Vstr "x" ] in
  let d = diff_exn ~base (image [ Value.Vint 7; Vstr "x" ]) in
  Alcotest.(check (list (pair int int))) "nothing ships" [] (shipped_slots d);
  Alcotest.(check bool) "rebuilds the capture" true
    (Image.apply_delta ~base d
    |> Option.map Image.digest = Some (Image.digest base))

let test_equal_block_kept () =
  let base = image ~heap:[ (3, int_block [| 1; 2 |]) ] [ Value.Varr 3 ] in
  let final = image ~heap:[ (3, int_block [| 1; 2 |]) ] [ Value.Varr 3 ] in
  let d = diff_exn ~base final in
  Alcotest.(check (list int)) "kept by id" [ 3 ] d.Image.d_heap_keep;
  Alcotest.(check (list int)) "nothing shipped" []
    (List.map fst d.Image.d_heap_new)

let test_changed_block_ships () =
  let base = image ~heap:[ (3, int_block [| 1; 2 |]) ] [ Value.Varr 3 ] in
  let final = image ~heap:[ (3, int_block [| 1; 5 |]) ] [ Value.Varr 3 ] in
  let d = diff_exn ~base final in
  Alcotest.(check (list int)) "shipped" [ 3 ] (List.map fst d.Image.d_heap_new);
  Alcotest.(check (list int)) "nothing kept" [] d.Image.d_heap_keep;
  Alcotest.(check bool) "rebuilds the capture" true
    (Image.apply_delta ~base d
    |> Option.map Image.digest = Some (Image.digest final))

let () =
  Alcotest.run "precopy"
    [ ( "end to end",
        [ Alcotest.test_case "same-arch ships a delta" `Quick
            test_same_arch_ships_delta;
          Alcotest.test_case "cross-arch falls back" `Quick
            test_cross_arch_falls_back;
          Alcotest.test_case "off mode unchanged" `Quick
            test_off_mode_has_no_markers;
          Alcotest.test_case "restored clones ship deltas" `Quick
            test_chained_moves_ship_deltas ] );
      ( "delta",
        [ qcheck_delta_roundtrip;
          qcheck_delta_wrong_base;
          Alcotest.test_case "-0.0 ships" `Quick test_negative_zero_ships;
          Alcotest.test_case "rewritten with its value" `Quick
            test_same_value_stays;
          Alcotest.test_case "equal block kept by id" `Quick
            test_equal_block_kept;
          Alcotest.test_case "changed block ships" `Quick
            test_changed_block_ships ] ) ]
