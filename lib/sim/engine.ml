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

(* One node per distinct pending instant, holding the thunks due then in
   the order they were scheduled. Sequence numbers only grow, so that
   order is (time, seq) order, and an event at an instant that already
   has a node is one array store. *)
type instant = {
  i_time : float;
  mutable i_thunks : (unit -> unit) array;
  mutable i_len : int;  (* thunks appended *)
  mutable i_next : int;  (* the next to fire; all popped at [i_len] *)
}

(* Fired and cancelled slots hold this thunk. It is static, so clearing
   a slot of an old array adds nothing to the remembered set, and
   telling a cancelled event apart on a pop is one physical comparison. *)
let vacant () = ()

(* Fills vacant heap slots and stands for "no instant": its NaN time
   equals no time, and it holds nothing to fire. *)
let no_instant = { i_time = nan; i_thunks = [||]; i_len = 0; i_next = 0 }

(* A cancellable event: its instant and slot, or its pool entry. An
   instant is never reused, and its [i_next] only grows, so a handle
   whose slot was popped stays inert. *)
type event = Queued of instant * int | Pooled of mc_event

type pending_event = {
  pe_seq : int;
  pe_time : float;
  pe_label : label;
}

(* At most this many drained thunk arrays wait for a new instant. *)
let max_spares = 8

type t = {
  (* binary min-heap on [i_time] of the instants after [current] *)
  mutable heap : instant array;
  mutable size : int;
  index : (float, instant) Hashtbl.t;  (* the heap's instants by time *)
  mutable current : instant;  (* the instant at [clock], drained or not *)
  mutable last : instant;  (* the instant last opened or found by time *)
  spares : (unit -> unit) array array;
  mutable n_spares : int;
  mutable queued : int;  (* events in instants not yet popped *)
  mutable clock : float;
  mutable next_seq : int;
  mutable fired : int;
  mutable guard : exn -> bool;
  (* Model-checking mode: when [mc_on], newly scheduled events are parked
     in [mc_pool] (insertion order) instead of the instants, and an
     external explorer decides which one fires next via [mc_fire]. *)
  mutable mc_on : bool;
  mutable mc_pool : mc_event list;  (* newest first *)
}

let create () =
  { heap = [||];
    size = 0;
    index = Hashtbl.create 64;
    current = no_instant;
    last = no_instant;
    spares = Array.make max_spares [||];
    n_spares = 0;
    queued = 0;
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

(* ------------------------------------------------------------ instants *)

(* Append [f] to [inst] and return its slot. *)
let append t inst f =
  let n = inst.i_len in
  if n = Array.length inst.i_thunks then begin
    let thunks = Array.make (max 8 (2 * n)) vacant in
    Array.blit inst.i_thunks inst.i_next thunks inst.i_next (n - inst.i_next);
    inst.i_thunks <- thunks
  end;
  Array.unsafe_set inst.i_thunks n f;
  inst.i_len <- n + 1;
  t.queued <- t.queued + 1;
  t.next_seq <- t.next_seq + 1;
  n

let rec sift_up heap i inst =
  let parent = (i - 1) / 2 in
  if i > 0 && inst.i_time < heap.(parent).i_time then begin
    heap.(i) <- heap.(parent);
    sift_up heap parent inst
  end
  else heap.(i) <- inst

let rec sift_down heap size i inst =
  let l = (2 * i) + 1 in
  if l >= size then heap.(i) <- inst
  else
    let r = l + 1 in
    let c = if r < size && heap.(r).i_time < heap.(l).i_time then r else l in
    if heap.(c).i_time < inst.i_time then begin
      heap.(i) <- heap.(c);
      sift_down heap size c inst
    end
    else heap.(i) <- inst

(* A new instant for [time], holding [f]: a drained instant's array is
   reused when one is spare. *)
let open_instant t time f =
  let thunks =
    if t.n_spares = 0 then Array.make 8 vacant
    else begin
      t.n_spares <- t.n_spares - 1;
      let a = t.spares.(t.n_spares) in
      t.spares.(t.n_spares) <- [||];
      a
    end
  in
  let inst = { i_time = time; i_thunks = thunks; i_len = 0; i_next = 0 } in
  if t.size = Array.length t.heap then begin
    let heap = Array.make (max 16 (2 * t.size)) no_instant in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end;
  t.size <- t.size + 1;
  sift_up t.heap (t.size - 1) inst;
  Hashtbl.replace t.index time inst;
  t.last <- inst;
  append t inst f

let enqueue t time f =
  match Hashtbl.find t.index time with
  | inst ->
    t.last <- inst;
    append t inst f
  | exception Not_found -> open_instant t time f

(* Queue [f] at [time] (not before the clock). The instant being fired
   and the last one opened take it without hashing: simultaneous events
   are the common case. *)
let[@inline] push t time f =
  if time = t.current.i_time then append t t.current f
  else if time = t.last.i_time then append t t.last f
  else enqueue t time f

(* Make the heap's earliest instant the current one and move the clock
   to it. The drained current instant leaves its array spare. *)
let advance t =
  let heap = t.heap in
  let top = heap.(0) in
  t.size <- t.size - 1;
  let tail = heap.(t.size) in
  heap.(t.size) <- no_instant;
  if t.size > 0 then sift_down heap t.size 0 tail;
  Hashtbl.remove t.index top.i_time;
  let old = t.current in
  if Array.length old.i_thunks > 0 && t.n_spares < max_spares then begin
    t.spares.(t.n_spares) <- old.i_thunks;
    t.n_spares <- t.n_spares + 1;
    old.i_thunks <- [||]
  end;
  t.current <- top;
  t.clock <- top.i_time

(* Pop the current instant's next event and run it unless cancelled. *)
let fire t inst =
  let i = inst.i_next in
  let f = Array.unsafe_get inst.i_thunks i in
  Array.unsafe_set inst.i_thunks i vacant;
  inst.i_next <- i + 1;
  t.queued <- t.queued - 1;
  if f != vacant then begin
    t.fired <- t.fired + 1;
    try f () with e when t.guard e -> ()
  end

(* ---------------------------------------------------------- scheduling *)

(* A NaN time would break the heap order: every comparison with it is
   false. *)
let schedule_at ?(label = tau) t ~time f =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: time is NaN";
  let time = if time < t.clock then t.clock else time in
  if t.mc_on then ignore (pool t ~label ~time f : mc_event)
  else ignore (push t time f : int)

let schedule ?(label = tau) t ~delay f =
  if Float.is_nan delay then invalid_arg "Engine.schedule: delay is NaN";
  let time = if delay < 0.0 then t.clock else t.clock +. delay in
  if t.mc_on then ignore (pool t ~label ~time f : mc_event)
  else ignore (push t time f : int)

let schedule_event ?(label = tau) t ~delay f =
  if Float.is_nan delay then invalid_arg "Engine.schedule: delay is NaN";
  let time = if delay < 0.0 then t.clock else t.clock +. delay in
  if t.mc_on then Pooled (pool t ~label ~time f)
  else
    let slot = push t time f in
    (* [push] appended to [current], [last] or the instant found by
       time; [last] is set in the latter two cases *)
    let inst = if time = t.current.i_time then t.current else t.last in
    Queued (inst, slot)

let cancel t = function
  | Queued (inst, i) -> if i >= inst.i_next then inst.i_thunks.(i) <- vacant
  | Pooled ev -> t.mc_pool <- List.filter (fun e -> e != ev) t.mc_pool

let pending t = t.queued + List.length t.mc_pool

let rec step t =
  let inst = t.current in
  if inst.i_next < inst.i_len then begin
    fire t inst;
    true
  end
  else if t.size = 0 then false
  else begin
    advance t;
    step t
  end

let run ?(until = infinity) ?(max_events = max_int) t =
  if Float.is_nan until then invalid_arg "Engine.run: until is NaN";
  let rec loop remaining =
    if remaining > 0 then begin
      let inst = t.current in
      if inst.i_next < inst.i_len then begin
        if inst.i_time <= until then begin
          fire t inst;
          loop (remaining - 1)
        end
      end
      else if t.size > 0 && t.heap.(0).i_time <= until then begin
        advance t;
        loop remaining
      end
    end
  in
  loop max_events

let events_fired t = t.fired

(* ------------------------------------------------------------------ *)
(* Model-checking mode                                                 *)

let mc_enable t =
  if t.queued > 0 then invalid_arg "Engine.mc_enable: heap not empty";
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
