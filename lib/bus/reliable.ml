(* Opt-in per-route reliable delivery.

   A channel is the unit of reliability: one (source endpoint,
   destination endpoint) pair with sender state (next sequence number,
   unacked frames, retransmission timer with exponential backoff on
   virtual time, duplicate-ack count) and receiver state (next expected
   sequence number, out-of-order buffer, duplicate/fence counters).
   Frames and cumulative acks ride [Bus.transmit], so every hop still
   pays latency, draws a fault decision from the seeded PRNG, and
   records injected loss exactly like an unreliable message —
   Drop/Duplicate are masked by the protocol, never bypassed.

   Epoch fencing: a channel carries an epoch, bumped when a rename is
   applied with [fence = true] (a supervisor replacing a merely
   *suspected* instance). Frames sent under an older epoch are
   discarded on arrival, so a false-positive restart cannot let the
   displaced generation's in-flight output land twice: the new epoch's
   retransmissions are the only frames that count.

   All protocol events trace under the ["retx"] category; the layer
   installed with nothing enabled leaves the bus byte-for-byte
   identical (pinned by the golden-trace tests). *)

module Engine = Dr_sim.Engine
module E = Dr_sim.Trace_event

type params = {
  rto_initial : float;
  rto_backoff : float;
  rto_max : float;
  retx_limit : int;
}

let default_params =
  { rto_initial = 4.0; rto_backoff = 2.0; rto_max = 16.0; retx_limit = 0 }

type channel = {
  mutable ch_src : Bus.endpoint;
  mutable ch_dst : Bus.endpoint;
  mutable ch_epoch : int;
  (* sender *)
  mutable ch_next_seq : int;
  ch_unacked : (int, Dr_state.Value.t) Hashtbl.t;
  mutable ch_lowest_unacked : int;
  mutable ch_rto : float;
  mutable ch_timer : Engine.event option;
      (* the one live retransmission timer, while frames are outstanding *)
  mutable ch_dup_acks : int;
      (* acks repeating the cursor since it last moved or the timer last
         went back N, saturating at [dup_ack_threshold] *)
  mutable ch_sent : int;
  mutable ch_retx : int;
  mutable ch_retx_wait : float;
      (* virtual time spent waiting on expired retransmission timers *)
  mutable ch_stalled_rounds : int;
      (* consecutive timer rounds that retransmitted without the ack
         cursor moving; bounded by [retx_limit] when set *)
  (* receiver *)
  mutable ch_next_expected : int;
  ch_ooo : (int, Dr_state.Value.t) Hashtbl.t;
  mutable ch_delivered : int;
  mutable ch_dups : int;
  mutable ch_fenced : int;
}

type t = {
  bus : Bus.t;
  p : params;
  channels : (Bus.endpoint * Bus.endpoint, channel) Hashtbl.t;
  mutable cover_all : bool;
}

let create_channel t ~src ~dst =
  let ch =
    { ch_src = src;
      ch_dst = dst;
      ch_epoch = 0;
      ch_next_seq = 0;
      ch_unacked = Hashtbl.create 8;
      ch_lowest_unacked = 0;
      ch_rto = t.p.rto_initial;
      ch_timer = None;
      ch_dup_acks = 0;
      ch_sent = 0;
      ch_retx = 0;
      ch_retx_wait = 0.0;
      ch_stalled_rounds = 0;
      ch_next_expected = 0;
      ch_ooo = Hashtbl.create 8;
      ch_delivered = 0;
      ch_dups = 0;
      ch_fenced = 0 }
  in
  Hashtbl.replace t.channels (src, dst) ch;
  Bus.record t.bus (E.Channel_opened { src; dst });
  ch

(* ------------------------------------------------------------ protocol *)

let rec drain_in_order t ch =
  match Hashtbl.find_opt ch.ch_ooo ch.ch_next_expected with
  | None -> ()
  | Some value ->
    if Bus.deliver_now t.bus ~dst:ch.ch_dst value then begin
      Hashtbl.remove ch.ch_ooo ch.ch_next_expected;
      ch.ch_next_expected <- ch.ch_next_expected + 1;
      ch.ch_delivered <- ch.ch_delivered + 1;
      drain_in_order t ch
    end

(* Acks that repeat the cursor, with frames outstanding, before the
   sender resends the frame just above it (RFC 5681 §3.2). *)
let dup_ack_threshold = 3

(* The protocol's handlers call one another: a frame's arrival acks, an
   ack may restart the timer or fast-retransmit, and a timeout resends.

   While frames are outstanding a channel has one live timer event, due
   a whole RTO after it was armed. Restarting or disarming the timer
   cancels that event, so a timer that fires is always a true timeout,
   whatever the clock reads (the model checker fires events out of
   timestamp order). *)
let rec send_frame t ch ~seq value =
  let epoch = ch.ch_epoch in
  Bus.transmit t.bus ~src:ch.ch_src ~dst:ch.ch_dst (fun () ->
      on_data t ch ~epoch ~seq value)

and on_data t ch ~epoch ~seq value =
  if epoch <> ch.ch_epoch then begin
    ch.ch_fenced <- ch.ch_fenced + 1;
    Bus.record t.bus
      (E.Fenced_frame
         { src = ch.ch_src;
           dst = ch.ch_dst;
           epoch;
           current = ch.ch_epoch;
           seq })
  end
  else if seq < ch.ch_next_expected then begin
    (* already delivered: a retransmission whose original got through,
       or an injected duplicate — suppress, but re-ack so the sender
       stops resending *)
    ch.ch_dups <- ch.ch_dups + 1;
    Bus.record t.bus
      (E.Dup_suppressed
         { src = ch.ch_src;
           dst = ch.ch_dst;
           seq;
           expected = ch.ch_next_expected });
    send_ack t ch
  end
  else if seq = ch.ch_next_expected then begin
    if Bus.deliver_now t.bus ~dst:ch.ch_dst value then begin
      ch.ch_next_expected <- seq + 1;
      ch.ch_delivered <- ch.ch_delivered + 1;
      drain_in_order t ch;
      send_ack t ch
    end
    (* destination gone or host down: no ack — the sender's timer keeps
       the frame alive until the destination is back (or renamed) *)
  end
  else begin
    if not (Hashtbl.mem ch.ch_ooo seq) then Hashtbl.replace ch.ch_ooo seq value;
    send_ack t ch
  end

(* Cumulative ack: "everything below [ch_next_expected] arrived". Acks
   need no epoch — they report receiver progress, which only moves
   forward and is meaningful to whichever generation holds the sender
   state after a rename. *)
and send_ack t ch =
  let acked = ch.ch_next_expected - 1 in
  Bus.transmit t.bus ~src:ch.ch_dst ~dst:ch.ch_src (fun () ->
      on_ack t ch ~acked)

(* An ack that moves the cursor restarts the timer with a fresh RTO
   (RFC 6298 §5.3), or disarms it when nothing is left outstanding. *)
and on_ack t ch ~acked =
  if acked >= ch.ch_lowest_unacked then begin
    for seq = ch.ch_lowest_unacked to acked do
      Hashtbl.remove ch.ch_unacked seq
    done;
    ch.ch_lowest_unacked <- acked + 1;
    ch.ch_stalled_rounds <- 0;
    ch.ch_dup_acks <- 0;
    ch.ch_rto <- t.p.rto_initial;
    restart_timer t ch
  end
  else if
    acked = ch.ch_lowest_unacked - 1
    && ch.ch_dup_acks < dup_ack_threshold
    && Hashtbl.length ch.ch_unacked > 0
  then begin
    ch.ch_dup_acks <- ch.ch_dup_acks + 1;
    if ch.ch_dup_acks = dup_ack_threshold then begin
      (* the receiver holds frames above a hole: resend the frame at
         the hole, once, and give it a full RTO *)
      let seq = ch.ch_lowest_unacked in
      ch.ch_retx <- ch.ch_retx + 1;
      Bus.record t.bus
        (E.Fast_retransmit
           { src = ch.ch_src; dst = ch.ch_dst; seq; epoch = ch.ch_epoch });
      send_frame t ch ~seq (Hashtbl.find ch.ch_unacked seq);
      restart_timer t ch
    end
  end

and arm_timer t ch =
  if Option.is_none ch.ch_timer then begin
    let engine = Bus.engine t.bus in
    let label =
      if not (Engine.mc_enabled engine) then Engine.tau
      else
        Engine.label
          ~touch:[ fst ch.ch_src; fst ch.ch_dst ]
          ~info:
            (Printf.sprintf "retx-timer %s.%s -> %s.%s" (fst ch.ch_src)
               (snd ch.ch_src) (fst ch.ch_dst) (snd ch.ch_dst))
          "timer"
    in
    ch.ch_timer <-
      Some
        (Engine.schedule_event ~label engine ~delay:ch.ch_rto (fun () ->
             on_timeout t ch))
  end

(* Cancel the pending timer event and, if frames are outstanding, arm a
   new one a whole RTO from now. *)
and restart_timer t ch =
  Option.iter (Engine.cancel (Bus.engine t.bus)) ch.ch_timer;
  ch.ch_timer <- None;
  if Hashtbl.length ch.ch_unacked > 0 then arm_timer t ch

and on_timeout t ch =
  ch.ch_timer <- None;
  if Hashtbl.length ch.ch_unacked > 0 then
    if t.p.retx_limit > 0 && ch.ch_stalled_rounds >= t.p.retx_limit then
      (* retransmission budget spent without ack progress: go quiet
         (timer stays disarmed) until a new send or an ack revives the
         channel. Keeps the model checker's state space finite — an
         adversary that starves the ack path can otherwise pump an
         unbounded retransmission storm. *)
      Bus.record t.bus
        (E.Retx_limit
           { src = ch.ch_src;
             dst = ch.ch_dst;
             rounds = ch.ch_stalled_rounds })
    else begin
      (* a true timeout: no progress for a whole RTO, so go back N.
         That whole wait is retransmission backoff, attributable to
         the channel's destination (sampled by the drain phase via
         the bus) *)
      ch.ch_retx_wait <- ch.ch_retx_wait +. ch.ch_rto;
      for seq = ch.ch_lowest_unacked to ch.ch_next_seq - 1 do
        match Hashtbl.find_opt ch.ch_unacked seq with
        | None -> ()
        | Some value ->
          ch.ch_retx <- ch.ch_retx + 1;
          Bus.record t.bus
            (E.Retransmit
               { src = ch.ch_src;
                 dst = ch.ch_dst;
                 seq;
                 epoch = ch.ch_epoch;
                 rto = ch.ch_rto });
          send_frame t ch ~seq value
      done;
      (* the frame at the hole went out again: a hole that outlives
         this copy too can be fast-retransmitted again *)
      ch.ch_dup_acks <- 0;
      ch.ch_stalled_rounds <- ch.ch_stalled_rounds + 1;
      ch.ch_rto <- Float.min t.p.rto_max (ch.ch_rto *. t.p.rto_backoff);
      arm_timer t ch
    end

let send t ~src ~dst value =
  let ch =
    match Hashtbl.find_opt t.channels (src, dst) with
    | Some ch -> Some ch
    | None -> if t.cover_all then Some (create_channel t ~src ~dst) else None
  in
  match ch with
  | None -> false
  | Some ch ->
    let seq = ch.ch_next_seq in
    ch.ch_next_seq <- seq + 1;
    Hashtbl.replace ch.ch_unacked seq value;
    ch.ch_sent <- ch.ch_sent + 1;
    ch.ch_stalled_rounds <- 0;
    send_frame t ch ~seq value;
    arm_timer t ch;
    true

(* ------------------------------------------------------------- rename *)

(* A reconfiguration renamed [old_instance] to [new_instance]: re-key
   every channel whose endpoints mention the old name, keeping the full
   sequence state, so the clone neither replays nor skips in-flight
   messages. With [fence = true] the epoch is also bumped: frames the
   displaced generation already put on the wire arrive with the old
   epoch and are discarded; the unacked ones are retransmitted under
   the new epoch (and new name) by the surviving timer. *)
let rename t ~old_instance ~new_instance ~fence =
  let affected =
    Hashtbl.fold
      (fun key ch acc ->
        if
          String.equal (fst (fst key)) old_instance
          || String.equal (fst (snd key)) old_instance
        then (key, ch) :: acc
        else acc)
      t.channels []
  in
  if affected <> [] then begin
    List.iter
      (fun (key, ch) ->
        Hashtbl.remove t.channels key;
        let fix (instance, iface) =
          if String.equal instance old_instance then (new_instance, iface)
          else (instance, iface)
        in
        ch.ch_src <- fix ch.ch_src;
        ch.ch_dst <- fix ch.ch_dst;
        if fence then ch.ch_epoch <- ch.ch_epoch + 1;
        Hashtbl.replace t.channels (ch.ch_src, ch.ch_dst) ch)
      affected;
    Bus.record t.bus
      (E.Channels_transferred
         { count = List.length affected;
           old_instance;
           new_instance;
           fenced = fence })
  end

(* -------------------------------------------------------------- stats *)

type stats = {
  st_src : Bus.endpoint;
  st_dst : Bus.endpoint;
  st_epoch : int;
  st_sent : int;
  st_retx : int;
  st_retx_wait : float;
  st_delivered : int;
  st_dups : int;
  st_fenced : int;
  st_unacked : int;
  st_dup_acks : int;
}

let stats t =
  Hashtbl.fold
    (fun _ ch acc ->
      { st_src = ch.ch_src;
        st_dst = ch.ch_dst;
        st_epoch = ch.ch_epoch;
        st_sent = ch.ch_sent;
        st_retx = ch.ch_retx;
        st_retx_wait = ch.ch_retx_wait;
        st_delivered = ch.ch_delivered;
        st_dups = ch.ch_dups;
        st_fenced = ch.ch_fenced;
        st_unacked = Hashtbl.length ch.ch_unacked;
        st_dup_acks = ch.ch_dup_acks }
      :: acc)
    t.channels []
  |> List.sort (fun a b -> compare (a.st_src, a.st_dst) (b.st_src, b.st_dst))

let iter_epochs t f = Hashtbl.iter (fun key ch -> f key ch.ch_epoch) t.channels

let total_retx t = List.fold_left (fun acc s -> acc + s.st_retx) 0 (stats t)

(* Retransmission wait attributable to one destination instance: every
   expired timer on a channel whose frames head there. *)
let retx_wait_to t ~instance =
  Hashtbl.fold
    (fun _ ch acc ->
      if String.equal (fst ch.ch_dst) instance then acc +. ch.ch_retx_wait
      else acc)
    t.channels 0.0

let total_unacked t =
  List.fold_left (fun acc s -> acc + s.st_unacked) 0 (stats t)

(* -------------------------------------------------------------- admin *)

let attach ?(params = default_params) bus =
  let t = { bus; p = params; channels = Hashtbl.create 32; cover_all = false } in
  Bus.set_transport bus
    { Bus.tr_send = (fun ~src ~dst value -> send t ~src ~dst value);
      tr_rename =
        (fun ~old_instance ~new_instance ~fence ->
          rename t ~old_instance ~new_instance ~fence);
      tr_retx_wait = (fun ~instance -> retx_wait_to t ~instance) };
  (* Export channel statistics as gauges, sampled at snapshot time.
     Requires the registry to be on the bus before [attach]. *)
  (match Bus.metrics bus with
  | Some registry ->
    Dr_obs.Metrics.register_collector registry (fun r ->
        let route s =
          Printf.sprintf "%s.%s->%s.%s" (fst s.st_src) (snd s.st_src)
            (fst s.st_dst) (snd s.st_dst)
        in
        List.iter
          (fun s ->
            let labels = [ ("route", route s) ] in
            let g name v =
              Dr_obs.Metrics.set_gauge r ~labels name (float_of_int v)
            in
            g "reliable.sent" s.st_sent;
            g "reliable.retx" s.st_retx;
            g "reliable.delivered" s.st_delivered;
            g "reliable.dups" s.st_dups;
            g "reliable.fenced" s.st_fenced;
            g "reliable.unacked" s.st_unacked)
          (stats t);
        Dr_obs.Metrics.set_gauge r "reliable.retx_total"
          (float_of_int (total_retx t));
        Dr_obs.Metrics.set_gauge r "reliable.unacked_total"
          (float_of_int (total_unacked t)))
  | None -> ());
  t

let enable_all t = t.cover_all <- true

let enable_route t ~src ~dst =
  match Hashtbl.find_opt t.channels (src, dst) with
  | Some _ -> ()
  | None -> ignore (create_channel t ~src ~dst)

