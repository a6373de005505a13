module Prng = Dr_sim.Prng
module Engine = Dr_sim.Engine

type event =
  | Host_crash of string
  | Host_recover of string
  | Process_crash of string
  | Image_corrupt of string

type rule = {
  r_src : string option;
  r_dst : string option;
  r_loss : float;
  r_dup : float;
}

type plan = {
  fp_events : (float * event) list;
  fp_rules : rule list;
  fp_jitter : float;
  fp_ctl_crash : int option;
}

let no_faults =
  { fp_events = []; fp_rules = []; fp_jitter = 0.0; fp_ctl_crash = None }

let rule ?src ?dst ?(loss = 0.0) ?(dup = 0.0) () =
  { r_src = src; r_dst = dst; r_loss = loss; r_dup = dup }

let plan ?(events = []) ?(rules = []) ?(jitter = 0.0) ?ctl_crash () =
  { fp_events = events; fp_rules = rules; fp_jitter = jitter;
    fp_ctl_crash = ctl_crash }

let matches r ~src ~dst =
  let ok filter name =
    match filter with None -> true | Some f -> String.equal f name
  in
  ok r.r_src (fst src) && ok r.r_dst (fst dst)

let fire bus = function
  | Host_crash h -> Bus.crash_host bus ~host:h
  | Host_recover h -> Bus.recover_host bus ~host:h
  | Process_crash i ->
    Bus.crash_process bus ~instance:i ~reason:"injected crash"
  | Image_corrupt i -> Bus.arm_image_corruption bus ~instance:i

let install bus ~seed p =
  List.iter
    (fun (time, event) ->
      Engine.schedule_at (Bus.engine bus) ~time (fun () -> fire bus event))
    p.fp_events;
  (match p.fp_ctl_crash with
  | Some n -> Bus.arm_ctl_crash bus ~after:n
  | None -> ());
  if p.fp_rules = [] && p.fp_jitter = 0.0 then Bus.clear_fault_hooks bus
  else begin
    let prng = Prng.create ~seed in
    (* injection accounting. Metrics are passive (no trace, no PRNG, no
       events), so the fault decision stream is untouched. *)
    let count_injection kind =
      match Bus.metrics bus with
      | None -> ()
      | Some r ->
        Dr_obs.Metrics.incr r ~labels:[ ("kind", kind) ] "faults.injected"
    in
    let decide ~src ~dst =
      match List.find_opt (matches ~src ~dst) p.fp_rules with
      | None -> Bus.Deliver
      | Some r ->
        (* one draw per decision, in a fixed order, so the stream of PRNG
           consumptions — and hence the whole run — replays from the seed *)
        let u = Prng.float prng 1.0 in
        if u < r.r_loss then begin
          count_injection "loss";
          Bus.Drop
        end
        else if r.r_dup > 0.0 && Prng.float prng 1.0 < r.r_dup then begin
          count_injection "dup";
          Bus.Duplicate
        end
        else Bus.Deliver
    in
    let jitter () =
      if p.fp_jitter > 0.0 then Prng.float prng p.fp_jitter else 0.0
    in
    Bus.set_fault_hooks bus
      { Bus.fh_message = (fun ~src ~dst -> decide ~src ~dst);
        fh_jitter = jitter }
  end

(* --------------------------------------------------- CLI specification *)

(* A non-finite number would schedule an event at a NaN or infinite
   time (an @T clause, or jitter) or make a probability meaningless, so
   the parser refuses it. *)
let parse_float_clause what v =
  match float_of_string_opt v with
  | Some f when not (Float.is_finite f) ->
    Error (Printf.sprintf "bad %s value %S: must be a finite number" what v)
  | Some f when f >= 0.0 -> Ok f
  | Some _ | None -> Error (Printf.sprintf "bad %s value %S" what v)

let parse_at what v =
  (* "name@T" *)
  match String.index_opt v '@' with
  | None -> Error (Printf.sprintf "bad %s %S: expected name@time" what v)
  | Some i -> (
    let name = String.sub v 0 i in
    let time = String.sub v (i + 1) (String.length v - i - 1) in
    if name = "" then
      Error (Printf.sprintf "bad %s %S: expected name@time" what v)
    else
      match float_of_string_opt time with
      | None -> Error (Printf.sprintf "bad %s %S: expected name@time" what v)
      | Some t when not (Float.is_finite t) ->
        Error (Printf.sprintf "bad %s %S: time must be a finite number" what v)
      | Some t when t < 0.0 ->
        Error (Printf.sprintf "bad %s %S: time must be non-negative" what v)
      | Some t -> Ok (name, t))

let parse_scope scope =
  (* "src>dst" with "*" wildcards *)
  match String.split_on_char '>' scope with
  | [ src; dst ] when src <> "" && dst <> "" ->
    let f s = if String.equal s "*" then None else Some s in
    Ok (f src, f dst)
  | _ -> Error (Printf.sprintf "bad scope %S: expected src>dst" scope)

let parse_plan spec =
  let ( let* ) = Result.bind in
  let clauses =
    List.filter (fun s -> s <> "") (String.split_on_char ',' spec)
  in
  List.fold_left
    (fun acc clause ->
      let* seed, p = acc in
      let key, value =
        match String.index_opt clause '=' with
        | None -> (clause, "")
        | Some i ->
          ( String.sub clause 0 i,
            String.sub clause (i + 1) (String.length clause - i - 1) )
      in
      let scoped prefix =
        (* "loss@src>dst" *)
        let pl = String.length prefix in
        if
          String.length key > pl + 1
          && String.equal (String.sub key 0 pl) prefix
          && key.[pl] = '@'
        then Some (String.sub key (pl + 1) (String.length key - pl - 1))
        else None
      in
      let add_rule src dst loss dup =
        (* merge clauses with the same scope (loss=…,dup=… is one rule:
           only the first matching rule is consulted per message) *)
        let same r = r.r_src = src && r.r_dst = dst in
        if List.exists same p.fp_rules then
          let rules =
            List.map
              (fun r ->
                if same r then
                  { r with
                    r_loss = Float.max r.r_loss loss;
                    r_dup = Float.max r.r_dup dup }
                else r)
              p.fp_rules
          in
          Ok (seed, { p with fp_rules = rules })
        else begin
          (* first match wins, so a new rule whose scope an earlier,
             broader rule already covers can never fire — reject the
             dead clause instead of silently ignoring it *)
          let covers a b = match a with None -> true | Some _ -> a = b in
          let scope_str s d =
            (match s with None -> "*" | Some x -> x)
            ^ ">"
            ^ (match d with None -> "*" | Some x -> x)
          in
          match
            List.find_opt
              (fun r -> covers r.r_src src && covers r.r_dst dst)
              p.fp_rules
          with
          | Some r ->
            Error
              (Printf.sprintf
                 "rule for %s is shadowed by the earlier rule for %s (first \
                  match wins; put the narrower scope first)"
                 (scope_str src dst)
                 (scope_str r.r_src r.r_dst))
          | None ->
            Ok
              (seed, { p with fp_rules = p.fp_rules @ [ rule ?src ?dst ~loss ~dup () ] })
        end
      in
      let add_event what name time ev =
        if
          List.exists
            (fun (t0, e0) -> Float.equal t0 time && e0 = ev)
            p.fp_events
        then Error (Printf.sprintf "duplicate %s clause %s@%g" what name time)
        else
          let conflicting =
            match ev with
            | Host_crash h ->
              List.exists
                (fun (t0, e0) -> Float.equal t0 time && e0 = Host_recover h)
                p.fp_events
            | Host_recover h ->
              List.exists
                (fun (t0, e0) -> Float.equal t0 time && e0 = Host_crash h)
                p.fp_events
            | Process_crash _ | Image_corrupt _ -> false
          in
          if conflicting then
            Error
              (Printf.sprintf
                 "conflicting clauses: crash and recover of %s at the same \
                  time %g"
                 name time)
          else Ok (seed, { p with fp_events = p.fp_events @ [ (time, ev) ] })
      in
      match key with
      | "seed" -> (
        match int_of_string_opt value with
        | Some s -> Ok (s, p)
        | None -> Error (Printf.sprintf "bad seed %S" value))
      | "loss" ->
        let* f = parse_float_clause "loss" value in
        add_rule None None f 0.0
      | "dup" ->
        let* f = parse_float_clause "dup" value in
        add_rule None None 0.0 f
      | "jitter" ->
        let* f = parse_float_clause "jitter" value in
        Ok (seed, { p with fp_jitter = f })
      | "crash" ->
        let* h, t = parse_at "crash" value in
        add_event "crash" h t (Host_crash h)
      | "recover" ->
        let* h, t = parse_at "recover" value in
        add_event "recover" h t (Host_recover h)
      | "kill" ->
        let* i, t = parse_at "kill" value in
        add_event "kill" i t (Process_crash i)
      | "corrupt" ->
        let* i, t = parse_at "corrupt" value in
        add_event "corrupt" i t (Image_corrupt i)
      | _ when String.length key > 9 && String.sub key 0 9 = "ctlcrash@" -> (
        (* "ctlcrash@N": controller dies after the Nth control-log
           append — an index into the journal's append sequence, not a
           virtual time *)
        let n = String.sub key 9 (String.length key - 9) in
        if value <> "" then
          Error (Printf.sprintf "bad ctlcrash clause %S: expected ctlcrash@N" clause)
        else
          match int_of_string_opt n with
          | None ->
            Error (Printf.sprintf "bad ctlcrash index %S: expected ctlcrash@N" n)
          | Some n when n < 1 ->
            Error
              (Printf.sprintf
                 "bad ctlcrash index %d: append indices start at 1" n)
          | Some n -> (
            match p.fp_ctl_crash with
            | Some _ -> Error "duplicate ctlcrash clause"
            | None -> Ok (seed, { p with fp_ctl_crash = Some n })))
      | _ -> (
        match scoped "loss", scoped "dup" with
        | Some scope, _ ->
          let* src, dst = parse_scope scope in
          let* f = parse_float_clause "loss" value in
          add_rule src dst f 0.0
        | None, Some scope ->
          let* src, dst = parse_scope scope in
          let* f = parse_float_clause "dup" value in
          add_rule src dst 0.0 f
        | None, None -> Error (Printf.sprintf "unknown fault clause %S" clause)))
    (Ok (0, no_faults))
    clauses

(* Hand the per-message fault decision to an external chooser — the
   model checker's explorer turns every send into an explicit choice
   point. Jitter is zero so virtual latency stays schedule-pure: the
   explorer owns ordering, not the clock. *)
let explorable bus ~decide =
  Bus.set_fault_hooks bus
    { Bus.fh_message = decide; fh_jitter = (fun () -> 0.0) }
