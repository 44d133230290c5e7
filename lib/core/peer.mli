(** A middleware peer: one host of the distributed system, implementing the
    optimistic transport protocol of Figure 1.

    Pass-by-value reception pipeline (optimistic mode):
    {ol
    {- an {!Message.Obj_msg} arrives carrying only the hybrid envelope
       (object payload + type names/GUIDs/download paths);}
    {- if every type in the envelope is already loaded (GUID hit), decode
       immediately;}
    {- otherwise fetch the type {e descriptions} (and, transitively, the
       descriptions they reference) from the sender;}
    {- run the implicit-structural-conformance check against each locally
       registered {e type of interest};}
    {- only if some interest conforms, download the missing {e assemblies}
       from their advertised download paths, load them, decode the payload
       and deliver it — wrapped in a dynamic proxy when the conformant type
       is not identical.}}

    Non-conformant objects are rejected {e before} any code is downloaded —
    the network saving the paper claims. The eager baseline ships
    descriptions and assemblies inline with every object instead.

    Pass-by-reference: {!export} publishes an object; {!acquire} fetches the
    remote type's description, checks conformance against a local interest
    type, and returns a proxy whose invocations become
    {!Message.Invoke_request} round-trips (arguments and results travel as
    envelopes through the same pipeline). *)

open Pti_cts

type mode = Optimistic | Eager

type event =
  | Delivered of { interest : string; from : string; value : Value.value }
  | Rejected of { type_name : string; from : string; reason : string }
  | Decode_failed of { from : string; reason : string }
  | Load_failed of { assembly : string; reason : string }
  | Corrupt_rejected of { from : string; what : string; reason : string }
      (** An integrity check caught wire damage: [what] is ["envelope"],
          ["payload"], ["tdesc"] or ["assembly"]. Corrupt subprotocol
          replies are re-requested (tdescs re-ask the sender up to
          [fetch_retries] times; assemblies go back through the
          retry/failover pipeline); corrupt object envelopes are dropped
          here and recovered, if at all, by frame-level integrity + ARQ
          ({!Pti_net.Net.set_integrity}). *)

val pp_event : Format.formatter -> event -> unit

type t

type shared
(** The flyweight block: the type/code side of a peer — class registry,
    served-assembly repository, type-description cache, conformance
    checker (with its verdict cache), advertised-path cache, proxy
    context and the receiver handle-table pool. Only {!create_shared}
    shapes a block; {!create} without [~shared] takes one with every
    default. The scale driver ([pti_scale]) allocates {e one} block and
    threads it through 10^5–10^6 lightweight sessions so this state is
    paid for once per process. Conversation state (interests, pending
    exchanges, event log, batches, wire counters) is never shared.

    The cache side of the block is {e sharded} by destination address:
    [create_shared ~shards:k] splits the description cache, checker
    (verdict cache), advertised-path cache and handle-table pool into
    [k] independent shards; each peer binds at construction to the
    shard selected by FNV-1a of its address. Registry, repository and
    the loaded-version ledger stay block-global (code loading is a
    single-domain operation — see HACKING, "Sharding and domain
    safety"); steady-state reception on peers of different shards
    touches disjoint mutable state and may run on different domains.
    The default [shards = 1] is bit-identical to the unsharded
    layout. *)

val create_shared : ?config:Pti_conformance.Config.t ->
  ?tdesc_cache_capacity:int -> ?checker_cache_capacity:int ->
  ?handle_table_capacity:int -> ?shards:int -> unit -> shared
(** [config] (default strict) is the checkers' rule set. Every cache is
    bounded: descriptions by [tdesc_cache_capacity] (default 512),
    verdicts by [checker_cache_capacity] ({!Pti_conformance.Checker}'s
    default), advertised download paths by 512, and each per-link
    receiver handle table by [handle_table_capacity] (default 512).
    [shards] (default 1) must be >= 1; the cache capacities are
    block-wide budgets split evenly across shards (ceiling division,
    floor 1 entry), so raising [shards] never raises the block's total
    cache cost. @raise Invalid_argument when [shards < 1]. *)

val shared : t -> shared
val shared_registry : shared -> Registry.t
val shared_repository : shared -> Repository.t

val shared_checker : shared -> Pti_conformance.Checker.t
(** Shard 0's checker — the whole block's checker when [shards = 1].
    For block-wide verdict-reuse accounting across every shard use
    {!shared_reuse_rate}. *)

val shard_count : shared -> int

val shard_index : shared -> string -> int
(** The shard the given destination address hashes to:
    [FNV-1a(addr) mod shard_count] (0 when the block is unsharded). *)

val shared_tdesc_cache_counters : shared -> Pti_obs.Lru.counters
(** Hit/miss/eviction accounting of the shared description cache,
    summed across shards — the cache-reuse curve the scale bench
    reports. *)

val shared_tdesc_cache_size : shared -> int
(** Entries across all shards. *)

val shared_pool_size : shared -> int
(** Receiver handle tables currently parked for reuse, across all
    shards (grown by {!release_handle_tables}, drained by lazy
    per-link table creation). *)

val shared_reuse_rate : shared -> float
(** Fraction of top-level conformance checks answered by a verdict
    cache, aggregated over every shard's checker (per-shard
    {!Pti_conformance.Checker.reuse_rate} weighted by check volume);
    0 before any check. *)

val release_handle_tables : t -> unit
(** Session teardown: clear this peer's learned (receiver) handle tables
    and return them to the shared pool, and forget its sender
    assignments. Tables are returned in sorted-correspondent order so
    the pool's contents are a deterministic function of departure
    order. The peer remains usable; its next envelope from a given
    correspondent draws a table from the pool again. *)

val create : ?mode:mode -> ?codec:Pti_serial.Envelope.codec ->
  ?metrics:Pti_obs.Metrics.t -> ?event_log_capacity:int ->
  ?request_timeout_ms:float -> ?fetch_retries:int ->
  ?fetch_backoff_ms:float -> ?handles:bool -> ?batch_bytes:int ->
  ?tdesc_binary:bool -> ?share_inflight:bool -> ?shared:shared ->
  transport:Message.t Pti_transport.Transport.t -> string -> t
(** [create ~transport address] registers the peer on any transport
    backend: the simulator ([Transport.of_net net]), Unix-domain sockets
    or TCP. Defaults: optimistic mode, binary payload codec, a private
    [create_shared ()] block, an event log ring of
    [event_log_capacity] (4096). The peer reports through [metrics]
    (fresh registry when omitted) under [peer.<address>.*] names.
    @raise Invalid_argument when [address] is already registered on the
    transport; [metrics] is then left untouched.

    [request_timeout_ms] (default 10000) bounds how long a tdesc or
    assembly subprotocol request waits for its reply before the pipeline
    degrades (or, for downloads, fails over). [fetch_retries] (default
    0) re-asks a download path that many extra times before moving to
    the next mirror, waiting [fetch_backoff_ms * 2^n] (default base
    250ms) before retry [n+1].

    Wire-efficiency knobs (all off by default; see HACKING, "Wire
    efficiency"): [handles] sends handle-encoded envelopes on every
    link (receiving them is always supported); [batch_bytes] coalesces
    same-destination object sends within one simulation instant into
    {!Message.Obj_batch} frames of roughly that many payload bytes;
    [tdesc_binary] requests the compact binary type-description codec
    in {!Message.Tdesc_request}s.

    [share_inflight:false] disables the in-flight fetch dedup guards —
    reintroducing the historical fan-out bug (one tdesc probe and one
    code download {e per envelope} of a same-typed burst) so the model
    checker's known-bug regression can assert it finds them. Leave it
    at the default [true] everywhere else.

    [shared] threads a flyweight block built by {!create_shared} through
    this peer instead of allocating a private one. *)

val address : t -> string
val registry : t -> Registry.t
val checker : t -> Pti_conformance.Checker.t
val proxy_context : t -> Pti_proxy.Dynamic_proxy.context
val mode : t -> mode

val transport : t -> Message.t Pti_transport.Transport.t
(** The transport fabric the peer drives (any backend). *)

val now_ms : t -> float
(** The transport clock's current time: simulated ms on the sim
    backend, monotonic wall ms on sockets. Layers above the peer (the
    cluster's RTT EWMAs, gossip timestamps) must read time here, never
    from [Sim] directly, to be correct on real transports. *)

val schedule_timer : t -> info:string -> delay_ms:float ->
  (unit -> unit) -> unit
(** Schedule a guard timer owned by this peer's address on the
    transport clock — on the sim backend this produces the exact
    [Sim.Timer] label the model checker keys on. *)

(** {1 Code} *)

val publish_assembly : t -> Assembly.t -> unit
(** Load locally and serve under [asm://<address>/<name>]. *)

val publish_assembly_cas : ?expect:string -> t -> Assembly.t ->
  (Repository.version_entry, Repository.cas_error) result
(** Compare-and-set publish onto this host's version chain (see
    {!Repository.publish_cas}): [expect] is the required current head
    digest; omitted, the chain must still be empty (first publish).
    On success the revision is stamped with the next chain version,
    served versioned {e and} as the new unversioned head, loaded as the
    live code via {!Registry.upgrade} (old GUIDs stay registered so
    in-flight envelopes keep decoding against the revision they were
    serialized with), and the checker's verdict cache is invalidated
    witness-aware — verdicts about unchanged descriptions survive. *)

val install_assembly : t -> Assembly.t -> unit
(** Load locally without serving it. *)

val serve_assembly : t -> ?path:string -> Assembly.t -> unit
(** Serve the assembly from this host's repository {e without} loading
    it into the local registry — the mirror role: a host can hand out
    bytes it never executes. [path] defaults to
    [asm://<address>/<name>]. *)

val repository : t -> Repository.t
(** The assemblies this host serves. *)

val download_path : t -> assembly:string -> string

(** {1 Cluster hooks}

    The peer knows nothing of membership, replication or gossip
    semantics; [pti_cluster] installs these. *)

val set_mirror_provider :
  t -> (assembly:string -> advertised:string -> string list) -> unit
(** Ranked candidate download paths for an assembly whose envelope
    advertised [advertised]. The failover pipeline tries them in order
    (the advertised path is appended as a last resort if the provider
    omits it); without a provider only the advertised path is tried. *)

val set_gossip_handler :
  t -> (src:string -> kind:string -> body:string -> unit) -> unit
(** Receives every {!Message.Gossip} addressed to this host. Without a
    handler gossip is silently dropped. *)

val send_gossip : t -> dst:string -> kind:string -> body:string -> unit

val set_piggyback_provider :
  t -> (dst:string -> (string * string) list) -> unit
(** Called when an {!Message.Obj_batch} is about to ship to [dst]:
    returns [(kind, body)] gossip pairs to piggyback on the frame for
    free (they are handed to the receiver's gossip handler). Without a
    provider batches carry no piggyback. *)

val learn_description : t -> Pti_typedesc.Type_description.t -> unit
(** Insert a type description into the peer's cache as if it had been
    fetched — how gossip disseminates type metadata off the hot path. *)

val local_description :
  t -> string -> Pti_typedesc.Type_description.t option
(** Locally resolvable description: loaded code first, then the cache. *)

val known_descriptions : t -> (string * Pti_util.Guid.t) list
(** Every type this host can describe — loaded classes plus cached
    descriptions — as [(qualified name, GUID)], sorted, one entry per
    case-insensitive name. The raw material of a gossip digest. *)

(** {1 Pass-by-value} *)

val register_interest : t -> interest:string ->
  (from:string -> Value.value -> unit) -> unit
(** Declare a type of interest (its class/interface must be loaded locally)
    and the callback receiving conformant objects. Several interests may
    match one object; each matching callback fires. *)

type interest_id

val register_interest_id : t -> interest:string ->
  (from:string -> Value.value -> unit) -> interest_id
(** Like {!register_interest} but returns a handle for
    {!unregister_interest} (used by pub/sub unsubscription). *)

val unregister_interest : t -> interest_id -> unit
(** Idempotent. *)

val interests : t -> string list
(** The currently registered interest type names, registration order. *)

val set_default_sink : t -> (from:string -> Value.value -> unit) -> unit
(** Receives payloads that carry no objects (primitives, arrays of
    primitives), which have no type to match interests against. *)

val send_value : t -> dst:string -> Value.value -> unit
(** Ship an object graph by value. Every class in the graph must be loaded
    on this peer. Delivery happens as the simulation runs. *)

(** {1 Pass-by-reference} *)

type remote_ref = { rr_host : string; rr_id : int; rr_class : string }

val export : t -> Value.value -> remote_ref
(** Publish an object for remote invocation.
    @raise Invalid_argument if the value is not an object. *)

val acquire : t -> remote_ref -> interest:string ->
  (Value.value, string) result
(** Synchronously (driving the simulation) fetch the remote type's
    description, check conformance against the local [interest] type and
    return an invokable remote proxy. Invocations on the proxy are
    synchronous remote calls. *)

(** {1 Introspection for tests and benchmarks} *)

val events : t -> event list
(** Chronological. *)

val clear_events : t -> unit
(** Also resets {!events_dropped}. *)

val events_dropped : t -> int
(** Events displaced from the bounded log since creation/{!clear_events}. *)

val metrics : t -> Pti_obs.Metrics.t
(** The registry this peer reports through ([peer.<address>.*]). *)

val tdesc_cache_size : t -> int
val tdesc_cache_counters : t -> Pti_obs.Lru.counters
val exported_count : t -> int

val fetch_attempts : t -> int
(** Assembly download requests put on the wire (all paths, all tries). *)

val fetch_retries : t -> int
(** Re-asks of a path that had already failed at least once. *)

val fetch_failovers : t -> int
(** Times the pipeline moved on to the next mirror after exhausting a
    path's retries. Also surfaced as [peer.<address>.fetch.failovers]. *)

val corrupt_rejects : t -> int
(** Corrupt envelopes/payloads/tdescs/assemblies rejected by integrity
    checks. Also surfaced as [peer.<address>.corrupt_rejects]. *)

(** {2 Wire efficiency} *)

val handle_hits : t -> int
(** Type entries shipped as bare handle refs instead of full entries.
    Also surfaced as [serial.<address>.handle.hits]. *)

val handle_misses : t -> int
(** First-use binds shipped (full entry + assigned handle). Also
    [serial.<address>.handle.misses]. *)

val renegotiations : t -> int
(** {!Message.Handle_nak}s this peer sent for unknown handles — the
    degraded-but-correct path after table loss. Also
    [serial.<address>.handle.renegotiations]. *)

val batch_messages : t -> int
(** {!Message.Obj_batch} frames shipped. [peer.<address>.batch.messages]. *)

val batch_envelopes : t -> int
(** Object envelopes carried inside batch frames.
    [peer.<address>.batch.envelopes]. *)

val batch_bytes_saved : t -> int
(** Standalone-message bytes minus batched bytes, accumulated.
    [peer.<address>.batch.bytes_saved]. *)

val drop_handle_tables : t -> unit
(** Forget every learned (receiver-side) handle binding — simulates a
    restart/eviction; subsequent handle refs NAK and renegotiate. The
    chaos harness uses this to prove degradation never mis-types. *)

val flush_batches : t -> unit
(** Ship every open batch immediately (normally the delay-0 flush event
    does this); useful at simulation shutdown. Batches flush in sorted
    destination order (deterministic wire order). *)

val fingerprint : t -> int64
(** FNV-1a digest of the peer's observable state: loaded code, served
    assemblies, cached descriptions, event log, interests, pending
    subprotocol exchanges, parked envelopes, open batches and per-link
    handle tables — rendered in sorted order, so the digest is
    independent of hash-bucket layout. The model checker hashes these
    (plus the pending-event set) to prune schedules that reconverged to
    an already-explored state. *)

val fetch_type_description : t -> from:string -> string ->
  Pti_typedesc.Type_description.t option
(** Synchronous description fetch (drives the simulation); [None] when the
    queried host does not know the type. *)

val run : t -> unit
(** Convenience: run the shared network simulation to quiescence. *)
