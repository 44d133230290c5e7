(** A harness over a set of {!Node}s sharing one transport — what the
    CLI, the E9 bench and the integration tests drive.

    The harness owns nothing the nodes do not: it creates one peer +
    node per address, bootstraps membership with the full roster, and
    offers round-driving and whole-host crash/heal conveniences. The
    transport may wrap the simulated network ([Transport.of_net],
    deterministic, what the tests use) or be a socket fabric. *)

type t

val create : ?mode:Pti_core.Peer.mode -> ?codec:Pti_serial.Envelope.codec ->
  ?metrics:Pti_obs.Metrics.t -> ?factor:int -> ?seed:int64 ->
  ?request_timeout_ms:float -> ?fetch_retries:int ->
  ?fetch_backoff_ms:float -> ?probe_timeout_ms:float ->
  ?handles:bool -> ?batch_bytes:int -> ?tdesc_binary:bool ->
  transport:Pti_core.Message.t Pti_transport.Transport.t ->
  string list -> t
(** One peer + node per address, registered on [transport]. [factor]
    is the replication factor of every {!Node.publish} (default 2);
    [seed] derives each node's deterministic gossip-partner stream; the
    remaining knobs pass through to {!Pti_core.Peer.create} /
    {!Node.create}.
    @raise Invalid_argument on an empty address list. *)

val transport : t -> Pti_core.Message.t Pti_transport.Transport.t

val addresses : t -> string list
(** Creation order. *)

val nodes : t -> Node.t list
val node : t -> string -> Node.t
(** @raise Invalid_argument for an unknown address. *)

val peer : t -> string -> Pti_core.Peer.t

val run : t -> unit
(** Drive the shared transport to quiescence. *)

val run_rounds : t -> int -> unit
(** [n] gossip rounds: every node {!Node.tick}s, then the transport
    runs to quiescence; repeat. *)

val crash : t -> string -> unit
(** Partition the address from every other cluster member — in-flight
    messages included. Survivors degrade it to suspect, then dead, as
    their probes go unanswered. *)

val heal : t -> string -> unit
(** Undo {!crash}; the healed host is re-adopted on first contact. *)
