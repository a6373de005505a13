(* Wall-clock spans and counters recorded by the benchmark around its own
   calls into the system's layers (setup, bus runs, reconfiguration
   scripts, waves, explorations, WAL storage callbacks).

   Off by default: [span name f] is then just [f ()], so untraced runs
   pay one branch per call. When on, spans and counters are kept in
   memory and written once, at the end of a rep, as Chrome trace-event
   JSON (viewable in https://ui.perfetto.dev): wall-clock spans on one
   track, the virtual-time spans of the metrics registry on another. The
   tracer only reads clocks; it never touches the simulation. *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int;  (* -1 for a root *)
  sp_start : float;
  mutable sp_stop : float;
}

let on = ref false
let spans : span list ref = ref []  (* newest first *)
let stack : span list ref = ref []
let counters : (float * string * (string * float) list) list ref = ref []
let next_id = ref 0

let enable () = on := true

let span name f =
  if not !on then f ()
  else begin
    let s =
      { sp_id = !next_id;
        sp_name = name;
        sp_parent = (match !stack with p :: _ -> p.sp_id | [] -> -1);
        sp_start = Unix.gettimeofday ();
        sp_stop = Float.nan }
    in
    incr next_id;
    stack := s :: !stack;
    spans := s :: !spans;
    Fun.protect f ~finally:(fun () ->
        s.sp_stop <- Unix.gettimeofday ();
        stack := List.tl !stack)
  end

(* A sample of named values at the current instant (engine events,
   instructions, deliveries, GC words, ...). *)
let counter name args =
  if !on then counters := (Unix.gettimeofday (), name, args) :: !counters

let duration s = s.sp_stop -. s.sp_start

(* Durations of every closed span called [name], oldest first. *)
let durations name =
  List.rev_map duration (List.filter (fun s -> s.sp_name = name) !spans)

(* Per span name: (count, total seconds, self seconds). Self time is a
   span's duration minus the time its children cover; the benchmark is
   single-threaded, so children never overlap and their durations sum. *)
let summary () =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace children s.sp_parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt children s.sp_parent)))
    !spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.sp_id)
      in
      let n, total, selft =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.sp_name)
      in
      Hashtbl.replace by_name s.sp_name (n + 1, total +. duration s, selft +. self))
    !spans;
  List.sort compare
    (Hashtbl.fold (fun name (n, total, self) acc -> (name, n, total, self) :: acc)
       by_name [])

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Write the recorded spans and counters, plus [virtual_spans] as
   (name, start vms, end vms) on their own process track (1 vms drawn as
   1 ms), to [path]. [label] tags every wall-clock event (workload, seed,
   rep). *)
let write_chrome ~path ~label ~virtual_spans =
  let oc = open_out path in
  let first = ref true in
  let emit fmt =
    Printf.ksprintf
      (fun line ->
        if not !first then output_string oc ",\n";
        first := false;
        output_string oc line)
      fmt
  in
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.sp_start) infinity !spans
  in
  let origin = if Float.is_finite origin then origin else 0.0 in
  let us t = (t -. origin) *. 1e6 in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  emit
    "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": \
     {\"name\": \"wall clock (benchmark)\"}}";
  emit
    "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, \"args\": \
     {\"name\": \"virtual time (1 vms = 1 ms)\"}}";
  List.iter
    (fun s ->
      emit
        "{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"run\": %s}}"
        (json_string s.sp_name) (us s.sp_start) (duration s *. 1e6) s.sp_id
        s.sp_parent (json_string label))
    (List.rev !spans);
  List.iter
    (fun (t, name, args) ->
      emit "{\"name\": %s, \"ph\": \"C\", \"pid\": 1, \"ts\": %.3f, \"args\": {%s}}"
        (json_string name) (us t)
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s: %.17g" (json_string k) v) args)))
    (List.rev !counters);
  List.iter
    (fun (name, a, b) ->
      emit
        "{\"name\": %s, \"ph\": \"X\", \"pid\": 2, \"tid\": 1, \"ts\": %.3f, \
         \"dur\": %.3f}"
        (json_string name) (a *. 1e3) ((b -. a) *. 1e3))
    virtual_spans;
  output_string oc "\n]}\n";
  close_out oc
