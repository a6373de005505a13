(* Order statistics over samples, and a growable sample buffer. *)

(* Linear interpolation between closest ranks (numpy's default); [q] in
   [0, 1]. 0 for an empty sample, so a metric that saw no events reads 0
   rather than failing the run. *)
let quantile_sorted q a =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let quantile q xs = quantile_sorted q (sorted_array xs)
let median xs = quantile 0.5 xs

(* First and third quartiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so [calibrate] reports the spread
   exactly as an external check of the benchmark would compute it. *)
let quartiles xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n < 2 then
    let v = if n = 1 then a.(0) else 0.0 in
    (v, v)
  else
    let at j =
      let m = float_of_int ((n + 1) * j) /. 4.0 in
      let i = max 1 (min (n - 1) (int_of_float m)) in
      a.(i - 1) +. ((m -. float_of_int i) *. (a.(i) -. a.(i - 1)))
    in
    (at 1, at 3)

(* Interquartile range as a share of the median. *)
let iqr_share xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

(* (max - min) as a share of the median. *)
let range_share xs =
  let a = sorted_array xs in
  let n = Array.length a in
  let m = median xs in
  if n = 0 || m = 0.0 then 0.0 else (a.(n - 1) -. a.(0)) /. Float.abs m

(* A growable buffer of float samples (hundreds of thousands of request
   latencies stay unboxed). *)
module Samples = struct
  type t = { mutable data : Float.Array.t; mutable len : int }

  let create () = { data = Float.Array.create 1024; len = 0 }

  let add t v =
    if t.len = Float.Array.length t.data then begin
      let bigger = Float.Array.create (2 * t.len) in
      Float.Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    Float.Array.set t.data t.len v;
    t.len <- t.len + 1

  let sorted t =
    let a = Array.init t.len (Float.Array.get t.data) in
    Array.sort Float.compare a;
    a

  let quantile t q = quantile_sorted q (sorted t)
end
