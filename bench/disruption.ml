(* Disruption-window benchmark: sweep AR-stack depth x per-frame payload
   on the deeprec_payload workload, migrate the instance off hostA both
   across architectures (hostB, sparc32) and within one (hostD, x86_64),
   with live pre-copy off and on, and read the phase decomposition back
   out of the span tree the reconfiguration script records — signal,
   drain, capture, translate, restore, all in virtual time. Emits
   BENCH_disruption.json next to bench_output.txt.

   Run with: dune exec bench/main.exe -- disruption

   Every cell asserts the decomposition identity: the phase durations
   must tile the root span exactly (total = signal + drain + capture +
   translate + restore), i.e. the observability plane accounts for the
   whole window with no gap and no overlap. Pre-copy adds only a
   zero-width marker, so the identity holds in every mode.

   Gates (non-zero exit on failure): pre-copy must never widen the
   window, and at depth 128 / payload 64 it must cut the window by at
   least 2x against both destinations. *)

module Bus = Dr_bus.Bus
module Script = Dr_reconfig.Script
module Metrics = Dr_obs.Metrics
module Synthetic = Dr_workloads.Synthetic
module I = Dr_transform.Instrument

(* Monitor's hosts plus a second x86_64 host, so the sweep has a
   same-architecture destination, whose decode reads the source layout
   unchanged, beside the 32-bit hostB. *)
let hosts =
  Dr_workloads.Monitor.hosts
  @ [ { Bus.host_name = "hostD"; arch = Dr_state.Arch.x86_64 } ]

type cell = {
  c_depth : int;
  c_payload : int;
  c_dst : string;      (* destination host *)
  c_precopy : bool;
  c_bytes_in : int;    (* abstract image size leaving hostA *)
  c_bytes_out : int;   (* after translation *)
  c_signal : float;
  c_drain : float;
  c_capture : float;
  c_translate : float;
  c_restore : float;
  c_total : float;
  c_precopy_wait : float;   (* service time before the freeze signal *)
}

let dur name span =
  match Metrics.span_duration span with
  | Some d -> d
  | None -> failwith (Printf.sprintf "disruption: %s span still open" name)

let child root kind =
  match
    List.find_opt
      (fun s -> String.equal (Metrics.span_kind s) kind)
      (Metrics.span_children root)
  with
  | Some s -> s
  | None -> failwith (Printf.sprintf "disruption: no %s child span" kind)

let child_opt root kind =
  List.find_opt
    (fun s -> String.equal (Metrics.span_kind s) kind)
    (Metrics.span_children root)

let attr span name =
  match List.assoc_opt name (Metrics.span_attrs span) with
  | Some v -> v
  | None -> failwith (Printf.sprintf "disruption: span lacks %s attr" name)

let int_attr span name = int_of_string (attr span name)

let run_cell ~depth ~payload ~dst ~precopy =
  let registry = Metrics.create () in
  let bus = Bus.create ~hosts () in
  Bus.set_metrics bus registry;
  let prepared =
    match
      I.prepare
        (Synthetic.deeprec_payload ~depth ~payload)
        ~points:Synthetic.deeprec_points
    with
    | Ok prepared -> prepared.I.prepared_program
    | Error e -> failwith ("disruption: instrument: " ^ e)
  in
  (match Bus.register_program bus prepared with
  | Ok () -> ()
  | Error e -> failwith ("disruption: register: " ^ e));
  (match Bus.spawn bus ~instance:"w" ~module_name:"deeppay" ~host:"hostA" () with
  | Ok () -> ()
  | Error e -> failwith ("disruption: spawn: " ^ e));
  (* let it dive to the bottom loop before signalling *)
  Bus.run ~until:5.0 bus;
  (match
     Script.run_sync bus (fun ~on_done ->
         Script.migrate bus ~precopy ~instance:"w" ~new_instance:"w2"
           ~new_host:dst ~on_done ())
   with
  | Ok _ -> ()
  | Error e -> failwith ("disruption: migrate: " ^ e));
  (* run on so the clone finishes restoring (closes the lazy spans) *)
  Bus.run ~until:(Bus.now bus +. 10.0) bus;
  let root =
    match
      List.filter
        (fun s -> String.equal (Metrics.span_kind s) "migrate")
        (Metrics.roots registry)
    with
    | [ s ] -> s
    | roots ->
      failwith
        (Printf.sprintf "disruption: expected one migrate span, got %d"
           (List.length roots))
  in
  let translate = child root "translate" in
  let precopy_wait =
    match child_opt root "precopy" with
    | Some pc -> float_of_string (attr pc "wait")
    | None when precopy -> failwith "disruption: precopy run lacks its marker"
    | None -> 0.0
  in
  let cell =
    { c_depth = depth;
      c_payload = payload;
      c_dst = dst;
      c_precopy = precopy;
      c_bytes_in = int_attr translate "bytes_in";
      c_bytes_out = int_attr translate "bytes_out";
      c_signal = dur "signal" (child root "signal");
      c_drain = dur "drain" (child root "drain");
      c_capture = dur "capture" (child root "capture");
      c_translate = dur "translate" translate;
      c_restore = dur "restore" (child root "restore");
      c_total = dur "migrate" root;
      c_precopy_wait = precopy_wait }
  in
  let sum =
    cell.c_signal +. cell.c_drain +. cell.c_capture +. cell.c_translate
    +. cell.c_restore
  in
  if Float.abs (sum -. cell.c_total) > 1e-9 then
    failwith
      (Printf.sprintf
         "disruption: depth %d payload %d -> %s (precopy %b): phases sum to \
          %.9f but window is %.9f"
         depth payload dst precopy sum cell.c_total);
  cell

let cell_json c =
  Json_out.obj
    [ ("depth", Json_out.int c.c_depth);
      ("payload", Json_out.int c.c_payload);
      ("dst", Json_out.str c.c_dst);
      ("precopy", Json_out.bool c.c_precopy);
      ("bytes_in", Json_out.int c.c_bytes_in);
      ("bytes_out", Json_out.int c.c_bytes_out);
      ("signal", Json_out.float c.c_signal);
      ("drain", Json_out.float c.c_drain);
      ("capture", Json_out.float c.c_capture);
      ("translate", Json_out.float c.c_translate);
      ("restore", Json_out.float c.c_restore);
      ("total", Json_out.float c.c_total);
      ("precopy_wait", Json_out.float c.c_precopy_wait) ]

let all ?(path = "BENCH_disruption.json") () =
  print_newline ();
  print_endline "==============================================================";
  print_endline "Disruption window vs AR-stack depth x payload (virtual time)";
  print_endline "  migrate hostA (x86_64) -> hostB (sparc32) / hostD (x86_64)";
  print_endline "  pre-copy off vs on, deeprec_payload workload";
  print_endline "==============================================================";
  let depths = [ 2; 8; 32; 128 ] in
  let payloads = [ 0; 16; 64 ] in
  let dsts = [ "hostB"; "hostD" ] in
  (* pre-copy off and on for each (depth, payload, destination) row *)
  let rows =
    List.concat_map
      (fun depth ->
        List.concat_map
          (fun payload ->
            List.map
              (fun dst ->
                let off = run_cell ~depth ~payload ~dst ~precopy:false in
                let on = run_cell ~depth ~payload ~dst ~precopy:true in
                (off, on))
              dsts)
          payloads)
      depths
  in
  Printf.printf "%6s %8s %6s %9s %10s %9s %8s\n" "depth" "payload" "dst"
    "off_total" "on_total" "speedup" "pc_wait";
  Printf.printf "%s\n" (String.make 62 '-');
  List.iter
    (fun (off, on) ->
      let speedup =
        if on.c_total <= 0.0 then "     inf "
        else Printf.sprintf "%8.2fx" (off.c_total /. on.c_total)
      in
      Printf.printf "%6d %8d %6s %9.3f %10.3f %s %8.3f\n" off.c_depth
        off.c_payload off.c_dst off.c_total on.c_total speedup
        on.c_precopy_wait)
    rows;
  print_endline
    "(each cell checked: phases tile the window — total = signal + drain";
  print_endline " + capture + translate + restore, exactly)";
  let cells = List.concat_map (fun (off, on) -> [ off; on ]) rows in
  let json =
    Json_out.obj
      [ ("suite", Json_out.str "disruption");
        ("cells", Json_out.arr (List.map cell_json cells)) ]
  in
  Json_out.write path json;
  (* regression gates *)
  let failed = ref false in
  List.iter
    (fun (off, on) ->
      if on.c_total > off.c_total +. 1e-9 then begin
        Printf.printf
          "FAIL: depth %d payload %d -> %s: pre-copy widened the window \
           (%.3f > %.3f)\n"
          off.c_depth off.c_payload off.c_dst on.c_total off.c_total;
        failed := true
      end;
      if off.c_depth = 128 && off.c_payload = 64 then
        (* headline criterion: >= 2x narrower at the deepest, fattest cell *)
        if on.c_total *. 2.0 > off.c_total then begin
          Printf.printf
            "FAIL: depth %d payload %d -> %s: pre-copy window %.3f is not \
             2x below %.3f\n"
            off.c_depth off.c_payload off.c_dst on.c_total off.c_total;
          failed := true
        end)
    rows;
  if !failed then exit 1
