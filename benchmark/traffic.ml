(* Seeded open-loop Poisson traffic over a Kvstore.Replica group.

   Independent clients: requests arrive at exponentially distributed
   gaps (mean 1 / rate) whether or not earlier ones were answered, so a
   stalled group builds a backlog instead of slowing the clients down.
   Each request goes to a uniformly chosen slot, addressed through
   [Bus.resolve_drain] at send time (a draining member's share goes to a
   live sibling); when no member of the group is available the request
   is shed explicitly and counted, never lost silently.

   Latency runs from a request's due time to the moment its reply is
   enqueued at the sink, observed through the bus's delivery observer
   ([observe]) rather than by polling, so it is exact instead of
   quantised to a poll period. Arrivals are engine events, so in
   virtual time the generator is never late: each request is sent at
   exactly its due time.

   Answers, errors, sheds and latencies are recorded into the
   [Rolling] metric contract, labelled by slot, so the canary judge sees
   this traffic exactly as it would see any other load generator's. *)

module Bus = Dr_bus.Bus
module Engine = Dr_sim.Engine
module Metrics = Dr_obs.Metrics
module Prng = Dr_sim.Prng
module Rolling = Dr_reconfig.Rolling
module Replica = Dr_workloads.Kvstore.Replica

(* The request mix: half gets, and 80 % of requests on 8 hot keys out
   of 100. *)
let read_ratio = 0.5
let hot_ratio = 0.8
let hot_keys = 8
let keys = 100

type pending = { p_due : float; p_slot : string; p_expect : int }

type t = {
  bus : Bus.t;
  rate : float;  (* requests per unit of virtual time *)
  metrics : Metrics.t;
  prng : Prng.t;
  slots : string array;
  targets : (string, string) Hashtbl.t;  (* slot -> serving instance *)
  pending : (int, pending) Hashtbl.t;
  latencies : Stats.Samples.t;
  mutable next_id : int;
  mutable issuing : bool;
  mutable sent : int;
  mutable answered : int;
  mutable shed : int;
  mutable wrong : int;
  mutable duplicated : int;
  mutable stray : int;
}

let labels slot = [ ("slot", slot) ]

let send t =
  let slot = t.slots.(Prng.int t.prng (Array.length t.slots)) in
  t.sent <- t.sent + 1;
  let target = Option.value ~default:slot (Hashtbl.find_opt t.targets slot) in
  match Bus.resolve_drain t.bus ~instance:target with
  | None ->
    t.shed <- t.shed + 1;
    Metrics.incr t.metrics ~labels:(labels slot) Rolling.shed_metric
  | Some instance ->
    let key =
      if Prng.float t.prng 1.0 < hot_ratio then Prng.int t.prng hot_keys
      else Prng.int t.prng keys
    in
    let op = if Prng.float t.prng 1.0 < read_ratio then 0 else 1 in
    let id = t.next_id in
    t.next_id <- id + 1;
    let expect = if op = 0 then Replica.expected_get ~key else Replica.set_ack in
    Hashtbl.replace t.pending id
      { p_due = Bus.now t.bus; p_slot = slot; p_expect = expect };
    Bus.inject t.bus ~dst:(instance, "req")
      (Dr_state.Value.Vint (Replica.encode_request ~id ~op ~key))

let gap t = -.Float.log (1.0 -. Prng.float t.prng 1.0) /. t.rate

let rec arrive t () =
  if t.issuing then begin
    send t;
    Engine.schedule (Bus.engine t.bus) ~delay:(gap t) (arrive t)
  end

let reply t v =
  match v with
  | Dr_state.Value.Vint r -> (
    let id, value = Replica.decode_reply r in
    match Hashtbl.find_opt t.pending id with
    | None -> t.duplicated <- t.duplicated + 1
    | Some p ->
      Hashtbl.remove t.pending id;
      t.answered <- t.answered + 1;
      let latency = Bus.now t.bus -. p.p_due in
      Stats.Samples.add t.latencies latency;
      let labels = labels p.p_slot in
      Metrics.observe t.metrics ~labels Rolling.latency_metric latency;
      Metrics.incr t.metrics ~labels Rolling.answered_metric;
      if value <> p.p_expect then begin
        t.wrong <- t.wrong + 1;
        Metrics.incr t.metrics ~labels Rolling.error_metric
      end)
  | _ -> t.stray <- t.stray + 1

(* Feed every successful enqueue here (the bus has one delivery
   observer; the caller may chain its own counting around this). *)
let observe t ~dst ~kind v =
  if kind = Bus.Fresh && dst = Replica.sink then reply t v

let start bus ~rate ~seed ~metrics ~slots =
  let t =
    { bus;
      rate;
      metrics;
      prng = Prng.create ~seed;
      slots = Array.of_list (List.map fst slots);
      targets = Hashtbl.create 8;
      pending = Hashtbl.create 1024;
      latencies = Stats.Samples.create ();
      next_id = 1;
      issuing = true;
      sent = 0;
      answered = 0;
      shed = 0;
      wrong = 0;
      duplicated = 0;
      stray = 0 }
  in
  List.iter (fun (slot, inst) -> Hashtbl.replace t.targets slot inst) slots;
  Engine.schedule (Bus.engine bus) ~delay:(gap t) (arrive t);
  t

let retarget t ~slot ~instance = Hashtbl.replace t.targets slot instance
let stop t = t.issuing <- false

(* Replies are accounted when enqueued; the sink never reads, so the
   workload empties its queue now and then to keep it from growing. *)
let discard_replies t = ignore (Bus.take_queue t.bus Replica.sink)

let inflight t = Hashtbl.length t.pending
