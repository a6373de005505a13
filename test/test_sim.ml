module Prng = Dr_sim.Prng
module Pqueue = Dr_sim.Pqueue
module Engine = Dr_sim.Engine
module Trace = Dr_sim.Trace

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

let test_trace_records_and_filters () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~category:"a" ~detail:"one";
  Trace.record t ~time:2.0 ~category:"b" ~detail:"two";
  Trace.record t ~time:3.0 ~category:"a" ~detail:"three";
  Alcotest.(check int) "length" 3 (Trace.length t);
  Alcotest.(check (list string)) "filter a" [ "one"; "three" ]
    (List.map (fun (e : Trace.entry) -> e.detail) (Trace.by_category t "a"));
  Trace.clear t;
  Alcotest.(check int) "cleared" 0 (Trace.length t)

(* [since t n] is the suffix past the first [n] entries: the cursor
   read the model-checking monitors make after every transition. *)
let prop_trace_since =
  Support.qcheck "since is the suffix past n"
    QCheck2.Gen.(list_size (int_bound 64) (pair (int_bound 3) small_nat))
    (fun records ->
      let t = Trace.create () in
      List.iteri
        (fun i (c, d) ->
          Trace.record t ~time:(float_of_int i)
            ~category:(Printf.sprintf "c%d" c) ~detail:(string_of_int d))
        records;
      let all = Trace.entries t in
      let len = Trace.length t in
      List.for_all
        (fun n -> Trace.since t n = List.filteri (fun i _ -> i >= n) all)
        (List.init (len + 1) Fun.id)
      && Trace.since t len = []
      &&
      (Trace.clear t;
       Trace.since t 0 = []))

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
          Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo ] );
      ( "trace",
        [ Alcotest.test_case "records and filters" `Quick
            test_trace_records_and_filters;
          prop_trace_since ] ) ]
