(* Shared helpers for the test suites. *)

module Ast = Dr_lang.Ast
module Machine = Dr_interp.Machine
module Value = Dr_state.Value

let parse source =
  try Dr_lang.Parser.parse_program source with
  | Dr_lang.Parser.Error (message, line) ->
    failwith (Printf.sprintf "parse error at line %d: %s" line message)
  | Dr_lang.Lexer.Error (message, line) ->
    failwith (Printf.sprintf "lexical error at line %d: %s" line message)

(* The whole token stream of [source], each token with its line, ending
   in [Teof]: pulled from the cursor, as the parsers pull it. *)
let tokenize source =
  let lex = Dr_lang.Lexer.create source in
  let rec loop acc =
    let tok = Dr_lang.Lexer.next lex in
    let acc = (tok, Dr_lang.Lexer.line lex) :: acc in
    match tok with Dr_lang.Token.Teof -> List.rev acc | _ -> loop acc
  in
  loop []

let typecheck_ok program =
  match Dr_lang.Typecheck.check program with
  | Ok () -> ()
  | Error errors ->
    Alcotest.failf "expected program to typecheck: %a"
      (Fmt.list ~sep:(Fmt.any "; ") Dr_lang.Typecheck.pp_error)
      errors

let typecheck_errors program =
  match Dr_lang.Typecheck.check program with
  | Ok () -> Alcotest.fail "expected type errors, got none"
  | Error errors -> List.map (fun (e : Dr_lang.Typecheck.error) -> e.message) errors

let prepare ?options source points =
  let program = parse source in
  match Dr_transform.Instrument.prepare ?options program ~points with
  | Ok prepared -> prepared
  | Error e -> Alcotest.failf "transform failed: %s" e

let point proc label =
  { Dr_transform.Instrument.pt_proc = proc; pt_label = label; pt_vars = None }

(* A scripted, inspectable io for driving machines without a bus. *)
type script_io = {
  io : Dr_interp.Io_intf.t;
  queues : (string, Value.t Queue.t) Hashtbl.t;
  mutable written : (string * Value.t) list;  (* reverse order *)
  mutable printed : string list;              (* reverse order *)
  mutable divulged : Dr_state.Image.t list;   (* reverse order *)
}

let script_io ?(feeds = []) () =
  let queues = Hashtbl.create 8 in
  List.iter
    (fun (iface, values) ->
      let q = Queue.create () in
      List.iter (fun v -> Queue.add v q) values;
      Hashtbl.replace queues iface q)
    feeds;
  let queue iface =
    match Hashtbl.find_opt queues iface with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace queues iface q;
      q
  in
  let rec t =
    { io =
        { io_query = (fun iface -> not (Queue.is_empty (queue iface)));
          io_read =
            (fun iface ->
              let q = queue iface in
              if Queue.is_empty q then None else Some (Queue.take q));
          io_write = (fun iface v -> t.written <- (iface, v) :: t.written);
          io_print = (fun line -> t.printed <- line :: t.printed);
          io_now = (fun () -> 0.0);
          io_encode = (fun image -> t.divulged <- image :: t.divulged);
          io_decode = (fun () -> None) };
      queues;
      written = [];
      printed = [];
      divulged = [] }
  in
  t

let written t = List.rev t.written
let printed t = List.rev t.printed

let feed t iface value = Queue.add value (Hashtbl.find_opt t.queues iface |> function Some q -> q | None -> let q = Queue.create () in Hashtbl.replace t.queues iface q; q)

let run_machine ?(max_steps = 1_000_000) machine =
  Machine.run ~max_steps machine;
  machine

let run_to_halt ?(max_steps = 1_000_000) program =
  let sio = script_io () in
  let machine = Machine.create ~io:sio.io program in
  Machine.run ~max_steps machine;
  (match Machine.status machine with
  | Machine.Halted -> ()
  | status ->
    Alcotest.failf "expected machine to halt, got %a (prints: %s)"
      Machine.pp_status status
      (String.concat " | " (printed sio)));
  (machine, sio)

let prints_of source =
  let (_, sio) = run_to_halt (parse source) in
  printed sio

let value = Alcotest.testable Value.pp Value.equal

let image = Alcotest.testable Dr_state.Image.pp Dr_state.Image.equal

let qcheck ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

(* Drive a monitor-style single machine: instrumented program, scripted
   sensor/display feeds; capture mid-run and restore into a clone.
   Returns (old machine, clone, image, script ios). *)
let capture_and_clone ?(signal_after_reads = 2) prepared_program ~feeds
    ~sensor_values =
  let sio = script_io ~feeds () in
  let reads = ref 0 in
  let next = ref 0 in
  let io =
    { sio.io with
      io_read =
        (fun iface ->
          if String.equal iface "sensor" then begin
            incr reads;
            incr next;
            Some (Value.Vint (List.nth sensor_values (!next - 1)))
          end
          else sio.io.io_read iface) }
  in
  let machine = Machine.create ~io prepared_program in
  let guard = ref 0 in
  while
    Machine.status machine = Machine.Ready
    && !reads < signal_after_reads
    && !guard < 1_000_000
  do
    Machine.step machine;
    incr guard
  done;
  Machine.deliver_signal machine;
  Machine.run ~max_steps:1_000_000 machine;
  let image =
    match sio.divulged with
    | [ image ] -> image
    | images -> Alcotest.failf "expected one divulged image, got %d" (List.length images)
  in
  let clone_io =
    { sio.io with
      io_read =
        (fun iface ->
          if String.equal iface "sensor" then begin
            incr next;
            Some (Value.Vint (List.nth sensor_values (!next - 1)))
          end
          else sio.io.io_read iface) }
  in
  let clone = Machine.create ~status_attr:"clone" ~io:clone_io prepared_program in
  Machine.feed_image clone image;
  (machine, clone, image, sio)
