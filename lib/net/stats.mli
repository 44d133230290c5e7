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
(** A view of the [net.*] instruments of one {!Pti_obs.Metrics}
    registry: every count of a fabric lives there, registered once by
    {!create}; [Net] and the stream transports keep none of their own.
    Fabrics sharing a registry pool their counts, as they pool latency
    histograms. Every caller in this repository gives each fabric its
    own registry. *)

val create : ?metrics:Pti_obs.Metrics.t -> unit -> t
(** Counters [net.bytes.<c>], [net.messages.<c>], [net.bytes.total],
    [net.messages.total], [net.rx.bytes.<c>], [net.rx.messages.<c>],
    [net.link.lost.<c>] and one [net.link.<event>] per {!link_event},
    plus [net.latency_ms.<c>] histograms, for every category [<c>].
    Without [metrics] they go to a private registry. *)

val record : t -> category -> bytes:int -> unit
(** One sent copy of [bytes] bytes. Like every [record*], one counter
    update per count and no allocation. *)

val bytes : t -> category -> int
val messages : t -> category -> int
val total_bytes : t -> int
val total_messages : t -> int

val record_rx : t -> category -> bytes:int -> unit
(** One received frame of [bytes] framed bytes. Stream transports only:
    on the sim the sent-side counts already cover both directions. *)

val received_bytes : t -> category -> int
val total_received_bytes : t -> int

(** {1 Link events} *)

type link_event =
  | Dropped
      (** [net.link.dropped]: a transmission attempt lost to ambient
          loss, a partition, a down window, an injected drop or a
          missing destination (including attempts later retried). *)
  | Retransmission
      (** [net.link.retransmissions]: sim, an ARQ retry; streams, a
          reconnect attempt. *)
  | Injected_drop  (** [net.link.injected_drops]: eaten by [fh_drop]. *)
  | Injected_duplicate
      (** [net.link.injected_duplicates]: an extra copy from
          [fh_duplicates]. *)
  | Corrupted
      (** [net.link.corrupted_frames]: a copy [fh_corrupt] replaced. *)
  | Integrity_drop
      (** [net.link.integrity_drops]: a frame discarded on arrival — the
          integrity predicate refused it, or (streams) the codec or
          framing could not decode it. *)

val record_link : t -> link_event -> unit
val record_links : t -> link_event -> int -> unit
val link_count : t -> link_event -> int

val record_lost : t -> category -> unit
(** One message abandoned: the sim's ARQ ran out of retries, or a
    stream link gave up redialing with the frame still queued. An
    unreliable sim never abandons; its drops are only {!Dropped}. *)

val lost_for : t -> category -> int
val lost_messages : t -> int
(** {!lost_for} summed over every category. *)

val reset : t -> unit
(** Zeroes every count of the view and clears its latency histograms
    (shared ones included). *)

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

val pp : Format.formatter -> t -> unit
(** Aligned table of category / messages / bytes. *)
