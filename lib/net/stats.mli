(** Per-category traffic accounting.

    The paper's headline for the optimistic protocol is that it "saves
    network resources": type representations and code travel only when
    needed. These counters are how experiment E5 observes that. *)

type category =
  | Object_msg  (** Hybrid envelopes carrying objects (Figure 3). *)
  | Tdesc_request
  | Tdesc_reply  (** Type descriptions (§5.2). *)
  | Asm_request
  | Asm_reply  (** Assemblies — downloaded code. *)
  | Invoke_request
  | Invoke_reply  (** Pass-by-reference remote invocations. *)
  | Gossip
      (** Cluster background traffic: membership, anti-entropy digests,
          replica pushes ([pti_cluster]). *)
  | Handle_ctl
      (** Type-handle negotiation control traffic: NAKs for unknown
          handles and the bind frames that renegotiate them. *)
  | Control  (** Everything else (acks, errors). *)

val all_categories : category list
val category_name : category -> string

val index : category -> int
(** Stable small-integer code (position in {!all_categories}) — the
    one-byte category tag the stream transports put on each frame. *)

val of_index : int -> category
(** Inverse of {!index}. @raise Invalid_argument out of range. *)

type t

val create : ?metrics:Pti_obs.Metrics.t -> unit -> t
(** Delivery latencies feed [net.latency_ms.<category>] histograms and
    per-category byte/message totals are exported as
    [net.bytes.<category>] / [net.messages.<category>] gauges
    (snapshot-time callbacks) in [metrics], so the network shares one
    registry with the peers that use it; without [metrics] they go to a
    private registry. Two fabrics given the same registry share its
    latency histograms. *)

val record : t -> category -> bytes:int -> unit
val bytes : t -> category -> int
val messages : t -> category -> int
val total_bytes : t -> int
val total_messages : t -> int

val reset : t -> unit
(** Zeroes the traffic totals, clears the latency histograms (shared
    ones included) and forgets the RTT estimates. *)

(** {1 Delivery latencies}

    No sample is kept: each delivery is one {!Pti_obs.Metrics.observe}
    into the category's histogram, so memory stays constant however
    long the run. *)

val record_latency : t -> category -> ms:float -> unit
(** Called by the network when a message is first delivered: simulated
    time between the original send and the arrival. *)

val latency_percentile : t -> category -> float -> float option
(** [latency_percentile t c 0.5] is the median delivery latency of the
    category, read from its histogram with {!Pti_obs.Metrics.quantile}:
    nearest-rank, at most 12.5 % above the exact value, exact for the
    minimum and maximum. [None] when nothing was recorded.
    @raise Invalid_argument unless the argument is in [\[0;1\]]. *)

(** {1 Per-peer round-trip observations}

    A host's own view of how far away each peer it talks to is — fed by
    the layers that can pair a request with its reply (the cluster's
    gossip exchanges), read by the mirror selector to rank download
    candidates. Deliberately per-{!t}: give each node its own [Stats.t]
    and the knowledge stays local, the way it would on a real network. *)

val record_rtt : t -> peer:string -> ms:float -> unit
(** Fold one observed round-trip into the peer's exponentially weighted
    moving average (fresh peers start at the observed value). *)

val rtt : t -> peer:string -> float option
(** Current EWMA estimate; [None] before any observation. *)

val rtts : t -> (string * float) list
(** All estimates, sorted by peer address. *)

val pp : Format.formatter -> t -> unit
(** Aligned table of category / messages / bytes. *)
