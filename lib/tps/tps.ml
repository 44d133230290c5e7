open Pti_cts
module Peer = Pti_core.Peer
module Metrics = Pti_obs.Metrics

type subscription = {
  sub_peer : Peer.t;
  sub_interest : string;
  sub_id : Peer.interest_id;
  mutable sub_active : bool;
  mutable sub_received : (string * Value.value) list;
}

type t = {
  broker_peer : Peer.t;
  mutable publishers : Peer.t list;
  mutable subs : subscription list;
  m_published : Metrics.counter;
  m_fanout : Metrics.counter;
  m_delivered : Metrics.counter;
}

let create ?mode ?metrics ~transport ~broker () =
  let broker_peer = Peer.create ?mode ?metrics ~transport broker in
  let m = match metrics with Some m -> m | None -> Peer.metrics broker_peer in
  {
    broker_peer;
    publishers = [];
    subs = [];
    m_published = Metrics.counter m "tps.published";
    m_fanout = Metrics.counter m "tps.fanout";
    m_delivered = Metrics.counter m "tps.delivered";
  }

let broker t = t.broker_peer

let add_publisher t peer =
  if
    not
      (List.exists
         (fun p -> String.equal (Peer.address p) (Peer.address peer))
         t.publishers)
  then t.publishers <- t.publishers @ [ peer ]

let subscribe t peer ~interest ?handler () =
  let sub = ref None in
  let id =
    Peer.register_interest_id peer ~interest (fun ~from value ->
        match !sub with
        | Some s when s.sub_active ->
            s.sub_received <- (from, value) :: s.sub_received;
            Metrics.incr t.m_delivered;
            (match handler with Some h -> h ~from value | None -> ())
        | Some _ | None -> ())
  in
  let s =
    { sub_peer = peer; sub_interest = interest; sub_id = id;
      sub_active = true; sub_received = [] }
  in
  sub := Some s;
  t.subs <- t.subs @ [ s ];
  s

let unsubscribe t sub =
  if sub.sub_active then begin
    sub.sub_active <- false;
    Peer.unregister_interest sub.sub_peer sub.sub_id;
    t.subs <- List.filter (fun s -> s != sub) t.subs
  end

let publish t publisher event =
  add_publisher t publisher;
  Metrics.incr t.m_published;
  let src = Peer.address publisher in
  List.iter
    (fun sub ->
      let dst = Peer.address sub.sub_peer in
      if not (String.equal dst src) then begin
        Metrics.incr t.m_fanout;
        Peer.send_value publisher ~dst event
      end)
    t.subs

let subscriptions t = t.subs
let deliveries sub = List.rev sub.sub_received
let run t = Peer.run t.broker_peer
