type entry = { time : float; category : string; detail : string }

(* Records live in fixed-size chunks small enough for the minor heap: a
   growing trace never copies what it holds, and a short one (a
   model-checking execution) never reaches the major heap. [times] and
   [events] are the chunk being filled, [full] the filled ones, newest
   first; record [i] sits at slot [i mod chunk] of its chunk. *)
let chunk = 64

type t = {
  mutable times : Float.Array.t;
  mutable events : Trace_event.t array;
  mutable full : (Float.Array.t * Trace_event.t array) list;
  mutable count : int;
}

(* Slots past the last record hold this placeholder, never read. *)
let empty_chunk () = Array.make chunk Trace_event.Ctl_restarted

let create () =
  { times = Float.Array.create chunk;
    events = empty_chunk ();
    full = [];
    count = 0 }

let record t ~time ev =
  let slot = t.count mod chunk in
  if slot = 0 && t.count > 0 then begin
    t.full <- (t.times, t.events) :: t.full;
    t.times <- Float.Array.create chunk;
    t.events <- empty_chunk ()
  end;
  Float.Array.set t.times slot time;
  t.events.(slot) <- ev;
  t.count <- t.count + 1

(* [f time ev] for records [n, count), in recording order, in time
   proportional to their number: walk back from the newest record,
   consing. *)
let slice t n f =
  let rec walk times events slot k full acc =
    if k < n then acc
    else if slot < 0 then
      match full with
      | (times, events) :: full -> walk times events (chunk - 1) k full acc
      | [] -> acc
    else
      walk times events (slot - 1) (k - 1) full
        (f (Float.Array.get times slot) events.(slot) :: acc)
  in
  let last = t.count - 1 in
  walk t.times t.events (last mod chunk) last t.full []

let entry time ev =
  { time; category = Trace_event.category ev; detail = Trace_event.render ev }

let event time ev = (time, ev)

let entries t = slice t 0 entry

let since t n = slice t n entry

let events t = slice t 0 event

let events_since t n = slice t n event

let by_category t category =
  List.filter_map
    (fun (time, ev) ->
      if String.equal (Trace_event.category ev) category then
        Some (entry time ev)
      else None)
    (events t)

let length t = t.count

let clear t =
  t.times <- Float.Array.create chunk;
  t.events <- empty_chunk ();
  t.full <- [];
  t.count <- 0

let pp_entry ppf e = Fmt.pf ppf "[%8.2f] %-12s %s" e.time e.category e.detail

let dump ppf t = List.iter (fun e -> Fmt.pf ppf "%a@." pp_entry e) (entries t)
