(** Type-based publish/subscribe enhanced with type interoperability —
    the first application sketched in §8.

    In classic TPS, publishers and subscribers must agree {e a priori} on
    event types. Here a subscription names a local {e type of interest} and
    receives every published event whose type implicitly structurally
    conforms — even events whose classes the subscriber has never seen
    (their code is pulled through the optimistic protocol on first use).

    Following the peer-to-peer setting the paper builds on (its own
    borrow/lend work), the "broker" is a rendezvous peer tracking
    membership; event envelopes flow publisher-to-subscriber directly.
    Matching happens at each subscriber, so a subscriber only downloads
    code for event types it can actually consume. *)

open Pti_cts

type t
(** A pub/sub domain bound to one transport. *)

type subscription = {
  sub_peer : Pti_core.Peer.t;
  sub_interest : string;
  sub_id : Pti_core.Peer.interest_id;
  mutable sub_active : bool;
  mutable sub_received : (string * Value.value) list;
      (** (publisher address, event) — most recent first. *)
}

val create : ?mode:Pti_core.Peer.mode -> ?metrics:Pti_obs.Metrics.t ->
  transport:Pti_core.Message.t Pti_transport.Transport.t ->
  broker:string -> unit -> t
(** Creates the broker peer at the given address on [transport]. When [metrics] is given
    the domain reports [tps.published] (publish calls), [tps.fanout]
    (per-subscriber sends) and [tps.delivered] (conformant events recorded
    on a subscription) counters there, and the broker peer shares the same
    registry. *)

val broker : t -> Pti_core.Peer.t

val add_publisher : t -> Pti_core.Peer.t -> unit
(** Any peer can publish once added (the broker learns nothing about its
    types in advance — that is the point). *)

val subscribe : t -> Pti_core.Peer.t -> interest:string ->
  ?handler:(from:string -> Value.value -> unit) -> unit -> subscription
(** Registers the peer as a subscriber for events conforming to its local
    [interest] type. Events are recorded on the subscription and forwarded
    to [handler] when given. *)

val publish : t -> Pti_core.Peer.t -> Value.value -> unit
(** Fan the event out to every subscriber (self-delivery excluded).
    Matching and code download happen subscriber-side as the simulation
    runs. *)

val unsubscribe : t -> subscription -> unit
(** Stop both the fan-out to this subscriber and the local interest
    matching. Idempotent. Events already in flight may still arrive at
    the peer but are no longer recorded or handed to the handler. *)

val subscriptions : t -> subscription list
(** Active subscriptions only. *)

val deliveries : subscription -> (string * Value.value) list
(** Chronological. *)

val run : t -> unit
(** Drive the domain's transport (through the broker peer) to
    quiescence. *)
