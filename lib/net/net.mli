(** The simulated network: addressed hosts, latency/bandwidth links,
    deterministic loss, optional reliable delivery. Everything it
    counts — traffic per category, drops, retransmissions, losses,
    injected faults — is recorded in its {!Stats} view ({!stats}); the
    network keeps no counter of its own.

    Polymorphic in the payload so the middleware layers its own message
    type on top; the network charges each message by the byte [size] the
    sender declares (computed from real wire renderings upstream).

    {1 Reliability}

    With {!reliability} configured, every send is acknowledged and
    retransmitted on a timer until acked or out of retries — an abstract
    ARQ layer. Retransmissions are charged again in the {!Stats} (and acks
    as [Control] bytes), so loss shows up as traffic and latency, the way
    it would over a real transport. Duplicate deliveries caused by lost
    acks are suppressed (exactly-once delivery to handlers). Without it,
    a dropped message is simply gone — which stalls request/reply
    protocols, as it should. *)

type address = string

type reliability = Arq.policy = {
  retransmit_ms : float;  (** Timer before an unacked send is retried. *)
  max_retries : int;  (** Attempts beyond the first before giving up. *)
  ack_bytes : int;  (** Wire size charged per acknowledgement. *)
}
(** Alias of {!Arq.policy}: the same knobs configure the sim ARQ here
    and reconnect-with-backoff in the socket transports. *)

val default_reliability : reliability
(** 50 ms timer, 5 retries, 16-byte acks. *)

type 'a fault_hooks = {
  fh_down : now:float -> src:address -> dst:address -> bool;
      (** Link severed at [now] (flap / partition window / crashed peer).
          Checked when an attempt launches {e and} again on arrival, so a
          window opening mid-flight kills the frame. *)
  fh_drop : now:float -> src:address -> dst:address -> bool;
      (** Extra per-attempt loss (burst windows). Counted in
          {!Stats.Injected_drop} when it fires. *)
  fh_duplicates : now:float -> src:address -> dst:address -> int;
      (** Extra copies of the frame to transmit (each charged, lossed,
          delayed and corrupted independently). *)
  fh_delay : now:float -> src:address -> dst:address -> float;
      (** Extra milliseconds added to the transfer delay — reordering
          windows return large random values here. *)
  fh_corrupt : now:float -> src:address -> dst:address -> 'a -> 'a option;
      (** [Some p'] replaces the payload of this copy with a mangled
          [p']; [None] leaves it alone. Sampled per transmitted copy. *)
}
(** Per-link fault-injection hooks, evaluated lazily against [Sim.now] —
    installing a plan schedules no events, so {!run} still quiesces.
    Hooks draw their own randomness (from a seeded [Splitmix]); the
    network only asks. See [Pti_fault.Fault_plan] for the compiler. *)

val no_faults : 'a fault_hooks
(** Hooks that never fire — a base to override selectively. *)

type 'a t

val create : ?default_latency_ms:float -> ?default_bandwidth_bpms:float ->
  ?drop_rate:float -> ?jitter_ms:float -> ?reliability:reliability ->
  ?seed:int64 -> ?metrics:Pti_obs.Metrics.t -> unit -> 'a t
(** Defaults: 1.0 ms latency, 1000 bytes/ms (~1 MB/s) bandwidth, no drops,
    no jitter, no reliability layer, seed 42. [metrics] is forwarded to
    {!Stats.create}: every count and latency histogram of the network
    lands in the given registry under [net.*]. *)

val sim : 'a t -> Sim.t
val stats : 'a t -> Stats.t

val add_host : 'a t -> address ->
  handler:(net:'a t -> src:address -> 'a -> unit) -> unit
(** @raise Invalid_argument on a duplicate address. After
    {!remove_host} the address may be registered again (restart). *)

val remove_host : 'a t -> address -> unit
(** Unregister a host (crash). Handlers are resolved on arrival, so
    frames in flight to a removed host are dropped, not raised on;
    under reliability they go unacked and the sender keeps retrying,
    so a host re-added within the retry budget picks the delivery
    back up. Sending {e to} a removed-but-once-known address is a
    silent drop; only a never-registered destination raises. *)

val set_link : 'a t -> address -> address -> latency_ms:float ->
  bandwidth_bpms:float -> unit
(** Overrides the defaults for both directions of the pair. *)

val partition : 'a t -> address -> address -> unit
(** Drop all traffic between the pair until {!heal} — including messages
    (and acks) already in flight when the cut happens: delivery re-checks
    the partition table on arrival, so nothing crosses a severed link.
    Under reliability the senders keep retrying, so short partitions only
    delay delivery. *)

val heal : 'a t -> address -> address -> unit

val set_fault_hooks : 'a t -> 'a fault_hooks option -> unit
(** Install (or clear) the fault-injection hooks. *)

val set_integrity : 'a t -> ('a -> bool) option -> unit
(** Install a frame-integrity predicate — the abstract link-layer
    checksum. A frame failing it is discarded on arrival (counted in
    {!Stats.Integrity_drop}) before the handler sees it; under reliability
    the discard suppresses the ack, so the sender retransmits and a
    later clean copy still gets through. *)

val send : 'a t -> ?info:string -> src:address -> dst:address ->
  category:Stats.category -> size:int -> 'a -> unit
(** Enqueue a message: records [size] bytes, applies latency + size/bandwidth
    (+ jitter), may drop. Delivery invokes the destination handler inside
    the simulation. [info] (default: the category name) describes the
    payload in the delivery event's {!Sim.label} so an exploration
    strategy can tell concurrently pending messages apart.
    @raise Invalid_argument for an unknown destination. *)

val on_send : 'a t ->
  (now:float -> src:address -> dst:address -> category:Stats.category ->
   size:int -> attempt:int -> unit) -> unit
(** Install an observer called for every transmission attempt (the
    {!Trace} module builds message logs from this). [attempt] is [0] for
    the first transmission and counts retransmissions up. Replaces any
    previous observer. *)

val run : 'a t -> unit
(** Run the simulation to quiescence. *)

val now_ms : 'a t -> float

val hosts : 'a t -> address list
(** Registered (alive) addresses, sorted — deterministic regardless of
    registration order. *)

(** {1 Scheduler hook}

    The model checker ([pti_mc]) replaces the simulator's FIFO event loop
    with an external strategy: read the {!enabled} set, pick an event,
    {!fire} it, repeat. {!run} remains the "always pick the earliest"
    strategy. *)

val enabled : 'a t -> Sim.info list
(** Pending simulator events (deliveries, actions, timers), sorted by
    [(time, seq)]. See {!Sim.pending_events}. *)

val fire : 'a t -> seq:int -> bool
(** Fire one enabled event out of order; clock only moves forward. See
    {!Sim.fire}. *)
