(* The indexed, batched bus must be observationally identical to the
   seed implementation: these tests replay the monitor, ring and chaos
   scenarios and require a byte-identical trace against goldens recorded
   from the list-based seed bus. The rolling golden, recorded from the
   string-storing trace, pins the high-volume categories (retx, drain,
   rolling) of the typed trace's text view. *)

let read_golden name = In_channel.with_open_bin name In_channel.input_all

let check_golden name produced =
  let expected = read_golden name in
  if not (String.equal expected produced) then begin
    let lines s = String.split_on_char '\n' s in
    let e = lines expected and p = lines produced in
    let rec first_diff i = function
      | [], [] -> None
      | x :: xs, y :: ys when String.equal x y -> first_diff (i + 1) (xs, ys)
      | x :: _, y :: _ -> Some (i, x, y)
      | x :: _, [] -> Some (i, x, "<missing>")
      | [], y :: _ -> Some (i, "<missing>", y)
    in
    match first_diff 1 (e, p) with
    | Some (i, x, y) ->
      Alcotest.failf "%s differs at line %d:\n  golden:   %s\n  produced: %s"
        name i x y
    | None ->
      Alcotest.failf "%s differs (lengths %d vs %d)" name
        (String.length expected) (String.length produced)
  end

let test_monitor () = check_golden "golden_monitor.trace" (Golden.monitor_trace ())
let test_ring () = check_golden "golden_ring.trace" (Golden.ring_trace ())
let test_chaos () = check_golden "golden_chaos.trace" (Golden.chaos_trace ())
let test_rolling () =
  check_golden "golden_rolling.trace" (Golden.rolling_trace ())

(* The metrics plane must be invisible to the simulation: the same
   scenarios, replayed with a registry attached, must still match the
   goldens byte-for-byte. *)
let test_monitor_metrics () =
  check_golden "golden_monitor.trace" (Golden.monitor_trace ~metrics:true ())

let test_ring_metrics () =
  check_golden "golden_ring.trace" (Golden.ring_trace ~metrics:true ())

let test_chaos_metrics () =
  check_golden "golden_chaos.trace" (Golden.chaos_trace ~metrics:true ())

let test_rolling_metrics () =
  check_golden "golden_rolling.trace" (Golden.rolling_trace ~metrics:true ())

let () =
  Alcotest.run "golden_trace"
    [ ( "byte-identical to seed",
        [ Alcotest.test_case "monitor migration" `Quick test_monitor;
          Alcotest.test_case "ring insertion" `Quick test_ring;
          Alcotest.test_case "seeded chaos replace" `Quick test_chaos;
          Alcotest.test_case "seeded lossy rolling wave" `Quick
            test_rolling ] );
      ( "byte-identical with metrics on",
        [ Alcotest.test_case "monitor migration" `Quick test_monitor_metrics;
          Alcotest.test_case "ring insertion" `Quick test_ring_metrics;
          Alcotest.test_case "seeded chaos replace" `Quick test_chaos_metrics;
          Alcotest.test_case "seeded lossy rolling wave" `Quick
            test_rolling_metrics ] ) ]
