type entry = { time : float; category : string; detail : string }

type t = { mutable rev_entries : entry list; mutable count : int }

let create () = { rev_entries = []; count = 0 }

let record t ~time ~category ~detail =
  t.rev_entries <- { time; category; detail } :: t.rev_entries;
  t.count <- t.count + 1

let entries t = List.rev t.rev_entries

(* The newest [count - n] entries head [rev_entries]; taking them onto
   an accumulator puts them back in recording order. *)
let since t n =
  let rec take k l acc =
    match l with
    | e :: tl when k > 0 -> take (k - 1) tl (e :: acc)
    | _ -> acc
  in
  take (t.count - n) t.rev_entries []

let by_category t category =
  List.filter (fun e -> String.equal e.category category) (entries t)

let length t = t.count

let clear t =
  t.rev_entries <- [];
  t.count <- 0

let pp_entry ppf e = Fmt.pf ppf "[%8.2f] %-12s %s" e.time e.category e.detail

let dump ppf t = List.iter (fun e -> Fmt.pf ppf "%a@." pp_entry e) (entries t)
