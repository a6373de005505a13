(* Capture/restore semantics on a single machine: the paper's core
   mechanism, exercised without the bus. *)

module I = Dr_transform.Instrument
module Machine = Dr_interp.Machine
module Value = Dr_state.Value
module Image = Dr_state.Image

let monitor_compute =
  {|
module compute;

proc main() {
  var n: int;
  var response: float;
  mh_init();
  while (true) {
    while (mh_query("display")) {
      mh_read("display", n);
      compute(n, n, response);
      mh_write("display", response);
    }
    if (mh_query("sensor")) {
      compute(1, 1, response);
    }
    sleep(2);
  }
}

proc compute(num: int, n: int, ref rp: float) {
  var temper: int;
  if (n <= 0) { rp = 0.0; return; }
  compute(num, n - 1, rp);
  R: mh_read("sensor", temper);
  rp = rp + float(temper) / float(num);
}
|}

let prepared_monitor =
  lazy
    (Support.prepare monitor_compute [ Support.point "compute" "R" ]).I
      .prepared_program

let sensor_stream = List.init 64 (fun i -> i + 1)

let test_capture_mid_recursion () =
  let program = Lazy.force prepared_monitor in
  let _old, clone, image, sio =
    Support.capture_and_clone program
      ~feeds:[ ("display", [ Value.Vint 4 ]) ]
      ~sensor_values:sensor_stream ~signal_after_reads:2
  in
  (* image shape: two interrupted compute frames + main, deepest first *)
  Alcotest.(check int) "three records" 3 (Image.depth image);
  let locations = List.map (fun (r : Image.record) -> r.location) image.records in
  Alcotest.(check (list int)) "deepest frame first: R edge, self-call, main"
    [ 4; 3; 1 ] locations;
  (* the interrupted frame had consumed temps 1 and 2: rp = 1/4 + 2/4 *)
  (match image.records with
  | { values = [| _num; _n; rp; _temper |]; _ } :: _ ->
    Alcotest.check Support.value "partial sum" (Value.Vfloat 0.75) rp
  | _ -> Alcotest.fail "record shape");
  (* finish the clone: it must write the average of 1..4 *)
  let guard = ref 0 in
  while Machine.status clone = Machine.Ready && sio.Support.written = [] && !guard < 100_000 do
    Machine.step clone;
    incr guard
  done;
  match Support.written sio with
  | [ ("display", Value.Vfloat avg) ] ->
    Alcotest.(check (float 1e-9)) "continues where it left off" 2.5 avg
  | w -> Alcotest.failf "unexpected writes (%d)" (List.length w)

let test_clone_equivalent_to_uninterrupted () =
  (* the sequence of display replies with a capture/restore in the middle
     equals the sequence without any reconfiguration *)
  let program = Lazy.force prepared_monitor in
  let run_uninterrupted () =
    let sio =
      Support.script_io ~feeds:[ ("display", [ Value.Vint 4 ]) ] ()
    in
    let next = ref 0 in
    let io =
      { sio.Support.io with
        io_read =
          (fun iface ->
            if String.equal iface "sensor" then begin
              incr next;
              Some (Value.Vint (List.nth sensor_stream (!next - 1)))
            end
            else sio.Support.io.io_read iface) }
    in
    let m = Machine.create ~io program in
    let guard = ref 0 in
    while Machine.status m = Machine.Ready && sio.Support.written = [] && !guard < 100_000 do
      Machine.step m;
      incr guard
    done;
    Support.written sio
  in
  let run_interrupted () =
    let _old, clone, _image, sio =
      Support.capture_and_clone program
        ~feeds:[ ("display", [ Value.Vint 4 ]) ]
        ~sensor_values:sensor_stream ~signal_after_reads:2
    in
    let guard = ref 0 in
    while Machine.status clone = Machine.Ready && sio.Support.written = [] && !guard < 100_000 do
      Machine.step clone;
      incr guard
    done;
    Support.written sio
  in
  Alcotest.(check (list (pair string Support.value)))
    "identical observable behaviour" (run_uninterrupted ()) (run_interrupted ())

let test_interrupt_at_every_point () =
  (* deliver the signal after each possible number of sensor reads (the
     stack is at a different shape each time); the final answer must
     always be 2.5 *)
  let program = Lazy.force prepared_monitor in
  List.iter
    (fun after_reads ->
      let _old, clone, image, sio =
        Support.capture_and_clone program
          ~feeds:[ ("display", [ Value.Vint 4 ]) ]
          ~sensor_values:sensor_stream ~signal_after_reads:after_reads
      in
      (* after k reads, frames (4, k+1) … (4, 4) plus main are live *)
      Alcotest.(check int)
        (Printf.sprintf "records after %d reads" after_reads)
        (4 - after_reads + 1)
        (Image.depth image);
      let guard = ref 0 in
      while
        Machine.status clone = Machine.Ready
        && sio.Support.written = []
        && !guard < 100_000
      do
        Machine.step clone;
        incr guard
      done;
      match Support.written sio with
      | [ ("display", Value.Vfloat avg) ] ->
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "answer after %d reads" after_reads)
          2.5 avg
      | w ->
        Alcotest.failf "after %d reads: %d writes, clone %s" after_reads
          (List.length w)
          (Fmt.str "%a" Machine.pp_status (Machine.status clone)))
    [ 1; 2; 3 ]

let test_deep_recursion_capture () =
  List.iter
    (fun depth ->
      let program = Dr_workloads.Synthetic.deeprec ~depth in
      let prepared =
        match I.prepare program ~points:Dr_workloads.Synthetic.deeprec_points with
        | Ok p -> p.I.prepared_program
        | Error e -> Alcotest.failf "prepare: %s" e
      in
      let sio = Support.script_io () in
      let m = Machine.create ~io:sio.Support.io prepared in
      (* run to the bottom of the recursion (machine sleeps there) *)
      Machine.run ~max_steps:10_000_000 m;
      Alcotest.(check bool) "sleeping at bottom" true
        (match Machine.status m with Machine.Sleeping _ -> true | _ -> false);
      Machine.deliver_signal m;
      Machine.set_ready m;
      Machine.run ~max_steps:10_000_000 m;
      Alcotest.(check bool)
        (Printf.sprintf "halted after capture at depth %d" depth)
        true
        (Machine.status m = Machine.Halted);
      match sio.Support.divulged with
      | [ image ] ->
        Alcotest.(check int)
          (Printf.sprintf "depth-%d image has depth+2 records" depth)
          (depth + 2) (Image.depth image);
        (* restore and let the clone tick once more *)
        let sio2 = Support.script_io () in
        let clone = Machine.create ~status_attr:"clone" ~io:sio2.Support.io prepared in
        Machine.feed_image clone image;
        Machine.run ~max_steps:10_000_000 clone;
        Alcotest.(check bool)
          (Printf.sprintf "clone rebuilt %d frames and sleeps" depth)
          true
          (match Machine.status clone with Machine.Sleeping _ -> true | _ -> false);
        Alcotest.(check int) "stack depth restored" (depth + 2)
          (Machine.stack_depth clone)
      | images -> Alcotest.failf "expected one image, got %d" (List.length images))
    [ 1; 4; 32; 128 ]

let test_heap_and_pointers_migrate () =
  let source =
    {|
module heapy;

var table: int[];
var alias: int[];
var cur: int*;

proc main() {
  var steps: int;
  mh_init();
  table = alloc_int(8);
  alias = table;
  cur = &table[3];
  table[0] = 11;
  cur[0] = 44;
  while (true) {
    R: steps = steps + 1;
    sleep(1);
  }
}
|}
  in
  let prepared =
    (Support.prepare source [ Support.point "main" "R" ]).I.prepared_program
  in
  let sio = Support.script_io () in
  let m = Machine.create ~io:sio.Support.io prepared in
  Machine.run ~max_steps:100_000 m;
  Machine.deliver_signal m;
  Machine.set_ready m;
  Machine.run ~max_steps:100_000 m;
  let image =
    match sio.Support.divulged with
    | [ image ] -> image
    | _ -> Alcotest.fail "no image"
  in
  Alcotest.(check int) "one shared heap block" 1 (List.length image.Image.heap);
  (* push it through the abstract codec, as a real migration would *)
  let image =
    match Dr_state.Codec.decode_abstract (Dr_state.Codec.encode_abstract image) with
    | Ok i -> i
    | Error e -> Alcotest.failf "codec: %s" e
  in
  let sio2 = Support.script_io () in
  let clone = Machine.create ~status_attr:"clone" ~io:sio2.Support.io prepared in
  Machine.feed_image clone image;
  Machine.run ~max_steps:100_000 clone;
  (* aliasing must survive: table, alias and cur reference one block *)
  let table = Option.get (Machine.read_global clone "table") in
  let alias = Option.get (Machine.read_global clone "alias") in
  let cur = Option.get (Machine.read_global clone "cur") in
  (match table, alias, cur with
  | Value.Varr b1, Value.Varr b2, Value.Vptr (b3, 3) ->
    Alcotest.(check int) "alias same block" b1 b2;
    Alcotest.(check int) "pointer same block" b1 b3
  | _ -> Alcotest.fail "heap value shapes");
  match Machine.heap_block clone (match table with Value.Varr b -> b | _ -> -1) with
  | Some block ->
    Alcotest.check Support.value "cell 0" (Value.Vint 11) block.cells.(0);
    Alcotest.check Support.value "cell 3 via pointer" (Value.Vint 44) block.cells.(3)
  | None -> Alcotest.fail "block missing"

let test_chained_reconfigurations () =
  (* capture, restore, capture the clone again, restore again: the
     machinery must chain indefinitely *)
  let depth = 6 in
  let program = Dr_workloads.Synthetic.deeprec ~depth in
  let prepared =
    match I.prepare program ~points:Dr_workloads.Synthetic.deeprec_points with
    | Ok p -> p.I.prepared_program
    | Error e -> Alcotest.failf "prepare: %s" e
  in
  let generation_of image =
    let sio = Support.script_io () in
    let m = Machine.create ~status_attr:"clone" ~io:sio.Support.io prepared in
    Machine.feed_image m image;
    Machine.run ~max_steps:1_000_000 m;
    (m, sio)
  in
  (* generation 0 *)
  let sio0 = Support.script_io () in
  let m0 = Machine.create ~io:sio0.Support.io prepared in
  Machine.run ~max_steps:1_000_000 m0;
  Machine.deliver_signal m0;
  Machine.set_ready m0;
  Machine.run ~max_steps:1_000_000 m0;
  let image0 =
    match sio0.Support.divulged with [ i ] -> i | _ -> Alcotest.fail "no image0"
  in
  (* generation 1: restore, run a little, capture again *)
  let m1, sio1 = generation_of image0 in
  Alcotest.(check int) "gen1 stack" (depth + 2) (Machine.stack_depth m1);
  Machine.deliver_signal m1;
  Machine.set_ready m1;
  Machine.run ~max_steps:1_000_000 m1;
  let image1 =
    match sio1.Support.divulged with [ i ] -> i | _ -> Alcotest.fail "no image1"
  in
  Alcotest.(check int) "image1 records" (depth + 2) (Image.depth image1);
  (* generation 2 *)
  let m2, _sio2 = generation_of image1 in
  Alcotest.(check int) "gen2 stack" (depth + 2) (Machine.stack_depth m2);
  Alcotest.(check bool) "gen2 alive" true
    (match Machine.status m2 with Machine.Sleeping _ -> true | _ -> false)

(* §3's run-time-error hazard: the callee mutates a variable used in the
   caller's argument expression, so naively re-evaluating the original
   arguments during restoration faults. Dummy substitution prevents it. *)
let hazard_source =
  {|
module hazard;

var idx: int = 0;
var data: int[];

proc f(x: int) {
  idx = 99;
  while (true) {
    R: idx = idx + 0;
    sleep(1);
  }
}

proc main() {
  data = alloc_int(4);
  f(data[idx]);
}
|}

let run_hazard ~substitute =
  let options = { I.default_options with substitute_dummy_args = substitute } in
  let prepared =
    (Support.prepare ~options hazard_source [ Support.point "f" "R" ]).I
      .prepared_program
  in
  let sio = Support.script_io () in
  let m = Machine.create ~io:sio.Support.io prepared in
  Machine.run ~max_steps:100_000 m;
  Machine.deliver_signal m;
  Machine.set_ready m;
  Machine.run ~max_steps:100_000 m;
  let image = List.hd sio.Support.divulged in
  let clone = Machine.create ~status_attr:"clone" ~io:sio.Support.io prepared in
  Machine.feed_image clone image;
  Machine.run ~max_steps:100_000 clone;
  Machine.status clone

let test_dummy_substitution_prevents_fault () =
  (match run_hazard ~substitute:true with
  | Machine.Sleeping _ -> ()
  | s ->
    Alcotest.failf "with substitution the clone should resume, got %a"
      Machine.pp_status s);
  match run_hazard ~substitute:false with
  | Machine.Crashed message ->
    Alcotest.(check bool) "faults on re-evaluated argument" true
      (String.length message > 0)
  | s ->
    Alcotest.failf "without substitution the clone should crash, got %a"
      Machine.pp_status s

let test_restore_into_nested_loops () =
  (* the point sits inside two nested whiles: restoration must goto from
     main's entry into the inner loop body and produce the exact result
     of an uninterrupted run (the Fig. 4 situation, two levels deep) *)
  let program = Dr_workloads.Synthetic.hotloop ~rounds:20 ~inner:15 in
  let prepared =
    match
      I.prepare program ~points:(Dr_workloads.Synthetic.hotloop_points `Inner)
    with
    | Ok p -> p.I.prepared_program
    | Error e -> Alcotest.failf "prepare: %s" e
  in
  let reference =
    let sio = Support.script_io () in
    let m = Machine.create ~io:sio.Support.io program in
    Machine.run ~max_steps:1_000_000 m;
    Support.printed sio
  in
  List.iter
    (fun offset ->
      let sio = Support.script_io () in
      let m = Machine.create ~io:sio.Support.io prepared in
      Machine.run ~max_steps:offset m;
      Machine.deliver_signal m;
      Machine.run ~max_steps:1_000_000 m;
      match sio.Support.divulged with
      | [ image ] ->
        let sio2 = Support.script_io () in
        let clone = Machine.create ~status_attr:"clone" ~io:sio2.Support.io prepared in
        Machine.feed_image clone image;
        Machine.run ~max_steps:1_000_000 clone;
        Alcotest.(check bool)
          (Printf.sprintf "clone halted (offset %d)" offset)
          true
          (Machine.status clone = Machine.Halted);
        Alcotest.(check (list string))
          (Printf.sprintf "same result as uninterrupted (offset %d)" offset)
          reference (Support.printed sio2)
      | _ ->
        (* signal landed after the loops finished: nothing to restore *)
        ())
    [ 10; 137; 1004; 4999 ]

(* Migration transparency under arbitrary signal timing: whenever the
   signal arrives, the combined observable output of the interrupted
   module and its clone equals the output of an uninterrupted run. *)
let prop_transparent_at_any_offset =
  Support.qcheck ~count:60 "signal offset transparency"
    QCheck2.Gen.(int_bound 3000)
    (fun offset ->
      let program = Lazy.force prepared_monitor in
      let make_io written =
        let next = ref 0 in
        let feeds = Queue.create () in
        Queue.add (Value.Vint 4) feeds;
        { (Dr_interp.Io_intf.null ()) with
          io_query =
            (fun iface -> iface = "display" && not (Queue.is_empty feeds));
          io_read =
            (fun iface ->
              match iface with
              | "display" ->
                if Queue.is_empty feeds then None else Some (Queue.take feeds)
              | "sensor" ->
                incr next;
                Some (Value.Vint !next)
              | _ -> None);
          io_write = (fun iface v -> written := (iface, v) :: !written) }
      in
      (* reference: run without any signal until the reply is written *)
      let reference =
        let written = ref [] in
        let m = Machine.create ~io:(make_io written) program in
        let guard = ref 0 in
        while Machine.status m = Machine.Ready && !written = [] && !guard < 100_000 do
          Machine.step m;
          incr guard
        done;
        List.rev !written
      in
      (* interrupted: signal after [offset] instructions; if the module
         divulges, restore a clone over the same io *)
      let interrupted =
        let written = ref [] in
        let divulged = ref None in
        let next = ref 0 in
        let feeds = Queue.create () in
        Queue.add (Value.Vint 4) feeds;
        let io =
          { (Dr_interp.Io_intf.null ()) with
            io_query =
              (fun iface -> iface = "display" && not (Queue.is_empty feeds));
            io_read =
              (fun iface ->
                match iface with
                | "display" ->
                  if Queue.is_empty feeds then None else Some (Queue.take feeds)
                | "sensor" ->
                  incr next;
                  Some (Value.Vint !next)
                | _ -> None);
            io_write = (fun iface v -> written := (iface, v) :: !written);
            io_encode = (fun image -> divulged := Some image) }
        in
        let m = Machine.create ~io program in
        let guard = ref 0 in
        while Machine.status m = Machine.Ready && !guard < offset && !written = [] do
          Machine.step m;
          incr guard
        done;
        Machine.deliver_signal m;
        (* run the old incarnation to its end (divulge or the reply) *)
        let guard = ref 0 in
        while Machine.status m = Machine.Ready && !written = [] && !guard < 100_000 do
          Machine.step m;
          incr guard
        done;
        (match Machine.status m, !divulged with
        | _, Some image when !written = [] ->
          let clone = Machine.create ~status_attr:"clone" ~io program in
          Machine.feed_image clone image;
          let guard = ref 0 in
          while
            Machine.status clone = Machine.Ready && !written = [] && !guard < 100_000
          do
            Machine.step clone;
            incr guard
          done
        | _ -> ());
        List.rev !written
      in
      match reference, interrupted with
      | [ (_, Value.Vfloat a) ], [ (_, Value.Vfloat b) ] -> Float.equal a b
      | _ ->
        QCheck2.Test.fail_reportf
          "offset %d: reference %d write(s), interrupted %d write(s)" offset
          (List.length reference) (List.length interrupted))

let () =
  Alcotest.run "capture"
    [ ( "monitor",
        [ Alcotest.test_case "mid-recursion" `Quick test_capture_mid_recursion;
          Alcotest.test_case "equivalent to uninterrupted" `Quick
            test_clone_equivalent_to_uninterrupted;
          Alcotest.test_case "interrupt at every point" `Quick
            test_interrupt_at_every_point ] );
      ( "depth",
        [ Alcotest.test_case "deep recursion" `Quick test_deep_recursion_capture ] );
      ( "heap",
        [ Alcotest.test_case "heap and pointers" `Quick
            test_heap_and_pointers_migrate ] );
      ( "chaining",
        [ Alcotest.test_case "repeated reconfigurations" `Quick
            test_chained_reconfigurations ] );
      ( "nested loops",
        [ Alcotest.test_case "restore into nested loops" `Quick
            test_restore_into_nested_loops ] );
      ( "dummy arguments",
        [ Alcotest.test_case "substitution prevents the §3 fault" `Quick
            test_dummy_substitution_prevents_fault ] );
      ("properties", [ prop_transparent_at_any_offset ]) ]
