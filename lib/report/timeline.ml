module Bus = Dr_bus.Bus
module Trace = Dr_sim.Trace
module E = Dr_sim.Trace_event

let default_events =
  [ "script"; "signal"; "state"; "lifecycle"; "crash"; "fault"; "rollback";
    "supervisor" ]

(* Marker characters drawn on an instance's bar:
   S — reconfiguration signal delivered
   D — state divulged
   R — state deposited (restoration)
   X — crash
   L — injected message loss at the sending instance
   B — instance brought back by a rollback *)
let marker_of_event (ev : E.t) instance =
  let is i = String.equal i instance in
  match ev with
  | E.Signalled i when is i -> Some 'S'
  | E.Divulged { instance = i; _ } when is i -> Some 'D'
  | E.Deposited i when is i -> Some 'R'
  | E.Crashed { instance = i; _ } when is i -> Some 'X'
  | E.Injected_loss { src = i, _; _ } when is i -> Some 'L'
  | E.Undo_restored { instance = i; _ } when is i -> Some 'B'
  | _ -> None

let render ?(width = 60) ?(events = default_events) bus =
  let buf = Buffer.create 1024 in
  let roster = Bus.roster bus in
  let t_end = Float.max (Bus.now bus) 1e-9 in
  let column time =
    let c = int_of_float (time /. t_end *. float_of_int (width - 1)) in
    max 0 (min (width - 1) c)
  in
  let name_width =
    List.fold_left
      (fun acc (r : Bus.roster_entry) ->
        max acc (String.length r.r_instance))
      8 roster
  in
  Buffer.add_string buf
    (Printf.sprintf "%-*s t=0%s t=%.1f\n" name_width ""
       (String.make (max 0 (width - 8)) ' ')
       t_end);
  let recorded = Trace.events (Bus.trace bus) in
  List.iter
    (fun (r : Bus.roster_entry) ->
      let bar = Bytes.make width ' ' in
      let start_col = column r.r_started in
      let end_col =
        match r.r_ended with Some t -> column t | None -> width - 1
      in
      for i = start_col to end_col do
        Bytes.set bar i '='
      done;
      Bytes.set bar start_col '[';
      (match r.r_ended with Some _ -> Bytes.set bar end_col ']' | None -> ());
      List.iter
        (fun (time, ev) ->
          match marker_of_event ev r.r_instance with
          | Some marker -> Bytes.set bar (column time) marker
          | None -> ())
        recorded;
      let state =
        match r.r_status with
        | None -> "removed"
        | Some status -> Fmt.str "%a" Dr_interp.Machine.pp_status status
      in
      Buffer.add_string buf
        (Printf.sprintf "%-*s %s  %s on %s (%s)\n" name_width r.r_instance
           (Bytes.to_string bar) r.r_module r.r_host state))
    roster;
  Buffer.add_string buf
    "\n\
    \  [ start   ] end   S signal   D divulge   R restore   X crash   L loss  \
    \ B rollback\n";
  let logged =
    List.filter (fun (_, ev) -> List.mem (E.category ev) events) recorded
  in
  if logged <> [] then begin
    Buffer.add_string buf "\nevents:\n";
    List.iter
      (fun (time, ev) ->
        Buffer.add_string buf
          (Printf.sprintf "  [%8.2f] %-10s %s\n" time (E.category ev)
             (E.render ev)))
      logged
  end;
  Buffer.contents buf
