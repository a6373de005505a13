(* What one rep measured, and the line protocol that carries it from the
   rep's child process to the parent that aggregates reps.

     metric <e2e|layer> <det 0|1> <name> <unit> <value>
     ops <attempted> <failed>
     fail <check that failed>
     span <name> <count> <total s> <self s>

   [det] marks a deterministic output (counts and virtual-time values):
   the traced rep must reproduce it exactly (the passivity check). *)

type role = E2e | Layer

type metric = {
  m_role : role;
  m_det : bool;
  m_name : string;
  m_unit : string;
  m_value : float;
}

type t = {
  mutable metrics : metric list;  (* newest first *)
  mutable failures : string list;
  mutable attempted : int;
  mutable failed : int;
  mutable spans : (string * int * float * float) list;
}

let create () =
  { metrics = []; failures = []; attempted = 0; failed = 0; spans = [] }

let add r ~role ?(det = false) name unit value =
  r.metrics <-
    { m_role = role; m_det = det; m_name = name; m_unit = unit; m_value = value }
    :: r.metrics

let e2e r ?det name unit value = add r ~role:E2e ?det name unit value
let layer r ?det name unit value = add r ~role:Layer ?det name unit value

(* A count: deterministic, reported per layer. *)
let count r name value = layer r ~det:true name "count" (float_of_int value)

let check r name ok = if not ok then r.failures <- name :: r.failures

let ops r ~attempted ~failed =
  r.attempted <- r.attempted + attempted;
  r.failed <- r.failed + failed

let metrics r = List.rev r.metrics
let find r name = List.find_opt (fun m -> m.m_name = name) r.metrics

let emit oc r =
  List.iter
    (fun m ->
      Printf.fprintf oc "metric %s %d %s %s %.17g\n"
        (match m.m_role with E2e -> "e2e" | Layer -> "layer")
        (if m.m_det then 1 else 0)
        m.m_name m.m_unit m.m_value)
    (metrics r);
  Printf.fprintf oc "ops %d %d\n" r.attempted r.failed;
  List.iter (fun f -> Printf.fprintf oc "fail %s\n" f) (List.rev r.failures);
  List.iter
    (fun (name, n, total, self) ->
      Printf.fprintf oc "span %s %d %.17g %.17g\n" name n total self)
    r.spans;
  flush oc

let parse lines =
  let r = create () in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "metric"; role; det; name; unit; value ] ->
        add r
          ~role:(if role = "e2e" then E2e else Layer)
          ~det:(det = "1") name unit (float_of_string value)
      | [ "ops"; a; f ] -> ops r ~attempted:(int_of_string a) ~failed:(int_of_string f)
      | "fail" :: rest -> r.failures <- String.concat " " rest :: r.failures
      | [ "span"; name; n; total; self ] ->
        r.spans <-
          r.spans
          @ [ (name, int_of_string n, float_of_string total, float_of_string self) ]
      | _ -> ())
    lines;
  r
