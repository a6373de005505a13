(* The broker domain: the bus's process table and per-hop batching.

   The process table is an arena — a flat array of slots with a free
   list — instead of a hashtable, so the delivery hot path is an array
   index, not a string hash. Handles are generational: freeing a slot
   bumps its generation, so a handle cached before a kill can never
   alias an instance that later reuses the slot — the stale handle
   simply stops resolving and the caller falls back to a by-name lookup.

   [Batch] is the bus's per-hop batching structure: messages due at the
   same virtual delivery time accumulate into one batch, and a single
   event-queue pop drains them all. Only model-checking mode schedules
   each message as its own event. *)

type handle = { h_slot : int; h_gen : int }

let null_handle = { h_slot = -1; h_gen = -1 }

let is_null h = h.h_slot < 0

type 'a t = {
  mutable slots : 'a option array;
  mutable gens : int array;
  mutable used : int;  (* high-water mark: slots at or beyond are virgin *)
  mutable free : int list;
}

let create () = { slots = [||]; gens = [||]; used = 0; free = [] }

let grow t =
  let capacity = Array.length t.slots in
  if t.used = capacity then begin
    let capacity' = max 16 (2 * capacity) in
    let slots' = Array.make capacity' None in
    let gens' = Array.make capacity' 0 in
    Array.blit t.slots 0 slots' 0 t.used;
    Array.blit t.gens 0 gens' 0 t.used;
    t.slots <- slots';
    t.gens <- gens'
  end

let alloc t v =
  let slot =
    match t.free with
    | slot :: rest ->
      t.free <- rest;
      slot
    | [] ->
      grow t;
      let slot = t.used in
      t.used <- t.used + 1;
      slot
  in
  t.slots.(slot) <- Some v;
  { h_slot = slot; h_gen = t.gens.(slot) }

(* Freeing bumps the generation, so every handle minted for this slot
   so far is dead from here on — the aliasing guard. *)
let free t h =
  if h.h_slot >= 0 && h.h_slot < t.used && t.gens.(h.h_slot) = h.h_gen
     && Option.is_some t.slots.(h.h_slot)
  then begin
    t.slots.(h.h_slot) <- None;
    t.gens.(h.h_slot) <- t.gens.(h.h_slot) + 1;
    t.free <- h.h_slot :: t.free
  end

let get t h =
  if h.h_slot >= 0 && h.h_slot < t.used && t.gens.(h.h_slot) = h.h_gen then
    t.slots.(h.h_slot)
  else None

(* ------------------------------------------------------------- batches *)

module Batch = struct
  (* Open batches keyed by exact virtual delivery time. Delivery times
     repeat heavily (fixed latencies, lock-stepped workloads), which is
     precisely what makes batching pay; a jittered message lands in its
     own batch and costs what it always cost. Batches are removed when
     drained, so the table only ever holds the in-flight horizon. *)
  type 'm t = {
    pending : (float, 'm list ref) Hashtbl.t;
    mutable in_flight : int;
  }

  let create () = { pending = Hashtbl.create 32; in_flight = 0 }

  (* [true] iff this message opened a new batch — the caller then
     schedules exactly one drain event at [due]. *)
  let add t ~due m =
    t.in_flight <- t.in_flight + 1;
    match Hashtbl.find_opt t.pending due with
    | Some cell ->
      cell := m :: !cell;
      false
    | None ->
      Hashtbl.replace t.pending due (ref [ m ]);
      true

  (* Messages in insertion order, so per-route FIFO is preserved. *)
  let drain t ~due =
    match Hashtbl.find_opt t.pending due with
    | None -> []
    | Some cell ->
      Hashtbl.remove t.pending due;
      let messages = List.rev !cell in
      t.in_flight <- t.in_flight - List.length messages;
      messages

  let in_flight t = t.in_flight
end
