(* Regenerate the golden trace files compared by test_golden_trace.ml.
   Usage: dune exec test/gen_goldens.exe -- <output-dir> *)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let write name data =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
        output_string oc data)
  in
  write "golden_monitor.trace" (Golden.monitor_trace ());
  write "golden_ring.trace" (Golden.ring_trace ());
  write "golden_chaos.trace" (Golden.chaos_trace ());
  write "golden_rolling.trace" (Golden.rolling_trace ());
  print_endline ("goldens written to " ^ dir)
