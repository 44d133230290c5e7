(** One cluster-aware host: membership, anti-entropy gossip, replicated
    publication and mirror ranking, wrapped around a {!Pti_core.Peer}.

    {2 Membership}

    A node tracks every peer it has heard of as [Alive], [Suspect] or
    [Dead]. Detection is purely observational: a gossip exchange that
    never completes within the probe timeout degrades the partner one
    step (alive -> suspect -> dead, the effect [Net.partition] has);
    direct traffic from a peer — and only direct traffic — resurrects it
    (so healed links recover, but rumours cannot talk a crashed peer
    back to life).

    {2 Anti-entropy}

    {!tick} runs one push-pull round: pick a random non-dead partner,
    send a {e digest} of known type descriptions, download paths and
    members; the partner replies with its own digest plus the full
    descriptions the initiator was missing; the initiator closes with a
    {e delta} of what the partner still lacks. Type metadata thus
    spreads epidemically, off the object hot path — the round-trip also
    feeds the initiator's RTT estimate of the partner (see {!rtt}).

    Rounds are driven explicitly (by {!Cluster.run_rounds}, the CLI or a
    test), never by self-rescheduling timers, so [Net.run] still
    quiesces.

    {2 Replication and mirrors}

    {!publish} loads and serves an assembly locally, then pushes copies
    to [factor - 1] peers chosen by rendezvous hashing; each recipient
    serves the bytes under its own [asm://] path without loading the
    code. The node's mirror table (own repository plus everything
    learned from gossip) backs the {!Pti_core.Peer.set_mirror_provider}
    hook: candidates are ranked by membership status, then observed
    RTT, with the advertised path first while its host looks healthy
    and demoted to last resort once it is suspect or dead. *)

type status = Alive | Suspect | Dead

val status_name : status -> string

type t

val create : ?factor:int -> ?seed:int64 -> ?probe_timeout_ms:float ->
  Pti_core.Peer.t -> t
(** Wrap [peer]: installs the gossip handler, mirror provider and batch
    piggyback provider, and registers [cluster.<address>.*] metrics
    (gossip.rounds, gossip.piggybacked, digest.bytes,
    members.alive/total, mirrors.known, replication.factor,
    fetch.failovers) on the peer's registry. [factor] (default 2) is
    the total number of copies {!publish} places, including the
    publisher's own. An anti-entropy digest rides an outgoing object
    batch to any one destination at most once per second.
    @raise Invalid_argument when [factor < 1]. *)

val peer : t -> Pti_core.Peer.t
val address : t -> string
val replication_factor : t -> int

(** {1 Membership} *)

val join : t -> string list -> unit
(** Bootstrap: believe the given addresses alive (self is ignored). *)

val mark : t -> string -> status -> unit
(** Administrative override — e.g. a graceful leave marks the leaver
    [Dead] without waiting for detection. *)

val members : t -> (string * status) list
(** Sorted by address; never includes self. *)

val alive : t -> string list
val status : t -> string -> status option

(** {1 Gossip} *)

val tick : t -> unit
(** One anti-entropy round (see above). Run the network afterwards to
    let the exchange complete. *)

val gossip_rounds : t -> int
val digest_bytes : t -> int
(** Total encoded gossip bodies this node has sent (all legs). *)

val piggybacked_digests : t -> int
(** Digests that rode outgoing object batches for free instead of a
    standalone gossip message. These feed dissemination but not failure
    detection (no probe timer is armed for them). *)

val rtt : t -> string -> float option
(** This node's own EWMA round-trip estimate of a peer from completed
    gossip exchanges: weight 0.3 per new sample, the first taken as is. *)

val fingerprint : t -> int64
(** FNV-1a digest of the node's cluster-visible state (membership view
    with statuses, mirror knowledge, probes in flight), rendered in
    sorted order. Combined with {!Pti_core.Peer.fingerprint} by the
    model checker's state-hash pruning. *)

(** {1 Replication} *)

val publish : t -> Pti_cts.Assembly.t -> unit
(** Load + serve locally, then push copies to the [factor - 1] replica
    holders chosen by rendezvous hashing over the current non-dead
    membership. *)

val publish_cas : ?expect:string -> t -> Pti_cts.Assembly.t ->
  (Pti_core.Repository.version_entry, Pti_core.Repository.cas_error) result
(** Compare-and-set publication onto this node's version chain
    ({!Pti_core.Peer.publish_assembly_cas}); on success the stamped
    revision is pushed to the [factor - 1] rendezvous replicas as chain
    entries, and anti-entropy gossip (which now carries per-name
    version-chain digests) converges the rest of the cluster on the
    newest chain. A [Conflict] means another publisher won the race:
    nothing is replicated. *)

val placement : t -> assembly:string -> int -> string list
(** The first [k] addresses of the deterministic rendezvous order —
    exposed for tests and capacity planning. *)

val known_mirrors : t -> string -> string list
(** Every download path this node believes serves the assembly
    (case-insensitive), sorted. *)

val rank : t -> assembly:string -> advertised:string -> string list
(** The candidate order the node's mirror provider hands the peer's
    failover pipeline: the advertised path first while its host is not
    suspect/dead (last resort otherwise), then every other known mirror
    by (membership status, observed RTT, path). *)

val mirror_table : t -> (string * string) list
(** All known [(path, assembly)] pairs, sorted by path. *)
