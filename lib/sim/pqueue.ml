type 'a entry = { time : float; seq : int; payload : 'a }

(* slots at or beyond [size] hold [None]: a popped entry (and the
   closure it carries) must not stay reachable from the heap array, or
   every fired event would be retained until its slot happens to be
   overwritten — a space leak over long runs *)
type 'a t = { mutable heap : 'a entry option array; mutable size : int }

let create () = { heap = [||]; size = 0 }

let is_empty t = t.size = 0

let length t = t.size

let get t i =
  match t.heap.(i) with
  | Some e -> e
  | None -> invalid_arg "pqueue: vacant slot"

let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less (get t i) (get t parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && less (get t l) (get t !smallest) then smallest := l;
  if r < t.size && less (get t r) (get t !smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t =
  let capacity = Array.length t.heap in
  if t.size = capacity then begin
    let capacity' = max 16 (2 * capacity) in
    let heap' = Array.make capacity' None in
    Array.blit t.heap 0 heap' 0 t.size;
    t.heap <- heap'
  end

let push t ~time ~seq payload =
  grow t;
  t.heap.(t.size) <- Some { time; seq; payload };
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = get t 0 in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      t.heap.(t.size) <- None;
      sift_down t 0
    end
    else t.heap.(0) <- None;
    Some (top.time, top.seq, top.payload)
  end

let peek_time t = if t.size = 0 then None else Some (get t 0).time

let clear t =
  Array.fill t.heap 0 (Array.length t.heap) None;
  t.size <- 0
