type label = {
  lb_kind : string;
  lb_touch : string list;
  lb_info : string;
}

let tau = { lb_kind = "tau"; lb_touch = []; lb_info = "" }

let label ?(touch = []) ?(info = "") kind =
  { lb_kind = kind; lb_touch = touch; lb_info = info }

type mc_event = {
  ev_seq : int;
  ev_time : float;
  ev_label : label;
  ev_thunk : unit -> unit;
}

(* A cancellable event, in the heap or the model-checking pool. *)
type event = Queued of (unit -> unit) Pqueue.entry | Pooled of mc_event

(* A cancelled heap event's thunk is swapped for this one, so telling it
   apart on a pop is one physical comparison. *)
let cancelled () = ()

type pending_event = {
  pe_seq : int;
  pe_time : float;
  pe_label : label;
}

type t = {
  queue : (unit -> unit) Pqueue.t;
  mutable clock : float;
  mutable next_seq : int;
  mutable fired : int;
  mutable guard : exn -> bool;
  (* Model-checking mode: when [mc_on], newly scheduled events are parked
     in [mc_pool] (insertion order) instead of the time-ordered heap, and
     an external explorer decides which one fires next via [mc_fire]. *)
  mutable mc_on : bool;
  mutable mc_pool : mc_event list;  (* newest first *)
}

let create () =
  { queue = Pqueue.create ();
    clock = 0.0;
    next_seq = 0;
    fired = 0;
    guard = (fun _ -> false);
    mc_on = false;
    mc_pool = [] }

let set_guard t guard = t.guard <- guard

let now t = t.clock

let next_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let pool t ~label ~time f =
  let ev =
    { ev_seq = next_seq t; ev_time = time; ev_label = label; ev_thunk = f }
  in
  t.mc_pool <- ev :: t.mc_pool;
  ev

(* A NaN time would break the heap order: every comparison with it is
   false. *)
let schedule_at ?(label = tau) t ~time f =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: time is NaN";
  let time = if time < t.clock then t.clock else time in
  if t.mc_on then ignore (pool t ~label ~time f : mc_event)
  else Pqueue.push t.queue ~time ~seq:(next_seq t) f

let schedule ?label t ~delay f =
  if Float.is_nan delay then invalid_arg "Engine.schedule: delay is NaN";
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_at ?label t ~time:(t.clock +. delay) f

let schedule_event ?(label = tau) t ~delay f =
  if Float.is_nan delay then invalid_arg "Engine.schedule: delay is NaN";
  let time = if delay < 0.0 then t.clock else t.clock +. delay in
  if t.mc_on then Pooled (pool t ~label ~time f)
  else Queued (Pqueue.add t.queue ~time ~seq:(next_seq t) f)

let cancel t = function
  | Queued e -> Pqueue.set_payload e cancelled
  | Pooled ev -> t.mc_pool <- List.filter (fun e -> e != ev) t.mc_pool

let pending t = Pqueue.length t.queue + List.length t.mc_pool

let step t =
  match Pqueue.pop t.queue with
  | None -> false
  | Some (time, _seq, f) ->
    t.clock <- time;
    if f != cancelled then begin
      t.fired <- t.fired + 1;
      try f () with e when t.guard e -> ()
    end;
    true

let run ?(until = infinity) ?(max_events = max_int) t =
  let rec loop remaining =
    if remaining > 0 then
      match Pqueue.peek_time t.queue with
      | Some time when time <= until -> if step t then loop (remaining - 1)
      | Some _ | None -> ()
  in
  loop max_events

let events_fired t = t.fired

(* ------------------------------------------------------------------ *)
(* Model-checking mode                                                 *)

let mc_enable t =
  if Pqueue.length t.queue > 0 then
    invalid_arg "Engine.mc_enable: heap not empty";
  t.mc_on <- true

let mc_enabled t = t.mc_on

let mc_pending t =
  List.rev_map
    (fun ev -> { pe_seq = ev.ev_seq; pe_time = ev.ev_time; pe_label = ev.ev_label })
    t.mc_pool

let mc_fire t ~seq =
  let rec split acc = function
    | [] -> None
    | ev :: rest when ev.ev_seq = seq -> Some (ev, List.rev_append acc rest)
    | ev :: rest -> split (ev :: acc) rest
  in
  match split [] t.mc_pool with
  | None -> false
  | Some (ev, rest) ->
    t.mc_pool <- rest;
    if ev.ev_time > t.clock then t.clock <- ev.ev_time;
    t.fired <- t.fired + 1;
    (try ev.ev_thunk () with e when t.guard e -> ());
    true
