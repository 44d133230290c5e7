(** The pluggable transport fabric: one interface, three backends.

    A transport [t] is everything a protocol stack needs from the
    network: endpoints addressed by logical names, [send], timers/acts
    on the backend's {!Pti_net.Clock}, connection lifecycle events,
    fault-injection middleware and per-category accounting in one
    {!Pti_net.Stats} view. Backends:

    - {b sim} — wraps an ['a Net.t] {e unchanged}: sends, ARQ, fault
      hooks, partitions and the model checker's [enabled]/[fire]
      scheduler hook all keep their exact semantics and {!Sim.label}s,
      so every deterministic suite behaves bit-identically whether the
      stack reaches [Net] directly or through here.
    - {b unix} — Unix-domain stream sockets, one listening socket per
      endpoint, nonblocking poll loop, reconnect-with-backoff driven by
      the same {!Arq.policy} knobs as the sim's ARQ.
    - {b tcp} — same machinery over loopback/remote TCP.

    Stream backends are polymorphic via an explicit ['a codec]; the
    peer stack supplies its [Message] binary codec. Fault hooks
    ([Net.fault_hooks]) become send-side middleware on streams, so the
    chaos vocabulary (loss, duplication, delay, corruption, down
    windows, partitions) applies to real kernel sockets too. The model
    checker stays pinned to the sim backend — only the simulator
    exposes a deterministic enabled-event set. *)

type address = string

type kind = Sim | Unix_socket | Tcp

val kind_name : kind -> string
val kind_of_string : string -> kind option
(** ["sim" | "unix" | "tcp"]. *)

type 'a codec = {
  c_encode : Pti_serial.Bytes_io.Writer.t -> 'a -> unit;
  c_decode : Pti_serial.Bytes_io.Reader.t -> ('a, string) result;
}
(** Payload <-> wire bytes, used by stream backends only (the sim moves
    values in memory and charges declared sizes).

    [c_encode w v] appends [v]'s bytes to [w], the frame being built:
    the frame header is already in it, and the length prefix goes in
    front once [c_encode] returns, so a send builds its frame in a reused
    writer and allocates the frame string once. [w] must not be kept.

    [c_decode r] reads one payload from [r], a reader over exactly that
    payload, inside the connection's receive buffer (nothing is copied
    before the codec sees it). It should consume the reader to its end;
    a [Bytes_io.Reader.Underflow] it lets escape counts as an integrity
    drop, like an [Error]. The view is valid only while [c_decode] runs:
    the buffer is refilled, and its bytes may move, as soon as anything
    polls the fabric, which a delivery handler may do. So the decoded
    value must own its bytes ([Bytes_io.Reader.string] copies); it must
    not hold on to [r]. *)

type conn_event =
  | Connected of { local : address; peer : address }
  | Disconnected of { local : address; peer : address }

type 'a t
type 'a endpoint

(** {1 Construction} *)

val of_net : 'a Pti_net.Net.t -> 'a t
(** Wrap a simulated network. Cheap; the fabric holds no state of its
    own, so wrapping the same [Net.t] twice yields equivalent fabrics. *)

val create_unix :
  ?dir:string ->
  ?reliability:Pti_net.Arq.policy ->
  ?metrics:Pti_obs.Metrics.t ->
  codec:'a codec ->
  unit ->
  'a t
(** Unix-domain-socket fabric. Endpoints bind [<dir>/<addr>.sock]
    (default: a per-user directory under the system temp dir).
    [reliability] tunes reconnect backoff, default {!Pti_net.Arq.default}. *)

val create_tcp :
  ?host:string ->
  ?reliability:Pti_net.Arq.policy ->
  ?metrics:Pti_obs.Metrics.t ->
  codec:'a codec ->
  unit ->
  'a t
(** TCP fabric; endpoints bind [host] (default 127.0.0.1) on an
    ephemeral port unless {!set_bind} pins one. *)

(** {1 Introspection} *)

val kind : _ t -> kind
val clock : _ t -> Pti_net.Clock.t
val now_ms : _ t -> float
val stats : _ t -> Pti_net.Stats.t
(** Sim: the wrapped net's stats (bytes charged by declared size).
    Streams: the fabric's own stats — bytes charged by actual framed
    wire size at send, latencies recorded on delivery from the wire
    stamp. *)

val sim_net : 'a t -> 'a Pti_net.Net.t option
(** The wrapped network on the sim backend; [None] on streams. Escape
    hatch for sim-only machinery (trace attach, the mc scheduler hook). *)

(** {1 Endpoints and addressing} *)

val add_endpoint :
  'a t -> address -> handler:(src:address -> 'a -> unit) -> 'a endpoint
(** Register a logical address. Sim: [Net.add_host]. Streams: binds and
    listens. @raise Invalid_argument on a duplicate address. *)

val remove_endpoint : _ t -> address -> unit
(** Crash the endpoint: sim [Net.remove_host]; streams close the
    listener and every connection it holds. *)

val endpoint_address : _ endpoint -> address

val register_remote : _ t -> address -> string -> unit
(** [register_remote t addr spec] teaches a stream fabric how to dial
    logical [addr]: a socket path (unix) or ["host:port"] (tcp). Only
    dialers need this — an accepted connection identifies its peer via
    the hello frame and replies reuse it. No-op on sim. *)

val set_bind : _ t -> address -> string -> unit
(** Pin where a future {!add_endpoint} for [addr] will listen (socket
    path / ["host:port"]) instead of the default. No-op on sim. *)

val set_bind_fd : _ t -> address -> Unix.file_descr -> unit
(** Like {!set_bind} with an already-listening descriptor — lets a
    parent process open the listener, fork, and have the child adopt it
    (no port race). No-op on sim. *)

val listen_spec : _ t -> address -> string option
(** Where a local endpoint actually listens, in {!register_remote}
    form — hand this to the process that will dial us. [None] on sim
    or for unknown addresses. *)

(** {1 Data path} *)

val send :
  'a endpoint ->
  ?describe:('a -> string) ->
  dst:address ->
  category:Pti_net.Stats.category ->
  size:int ->
  'a ->
  unit
(** Sim: exactly [Net.send] (same labels, same ARQ, same accounting);
    [describe payload] labels the delivery event. Streams label nothing
    and never call [describe].
    Streams: frame, apply fault middleware, write (connecting first if
    needed, buffering while a dial is in flight).
    @raise Invalid_argument for an unresolvable destination. *)

val connect : _ endpoint -> address -> unit
(** Eagerly establish a stream connection (normally implicit in the
    first send). No-op on sim. *)

val disconnect : _ endpoint -> address -> unit
(** Flush and close the connection to [dst]. No-op on sim. *)

val on_conn_event : _ t -> (conn_event -> unit) -> unit
(** Subscribe to stream connection lifecycle events (never fires on
    sim). Callbacks run inside the poll loop. *)

(** {1 Timers and actions}

    On sim these produce the exact [Sim.Timer]/[Sim.Act] labels the
    model checker keys on; on streams they land in the monotonic clock
    and fire from the poll loop. *)

val timer :
  _ t -> owner:address -> info:string -> delay_ms:float -> (unit -> unit) -> unit

val timer_cancellable :
  _ t ->
  owner:address ->
  info:string ->
  delay_ms:float ->
  (unit -> unit) ->
  unit ->
  unit
(** Returns the cancel thunk. *)

val act :
  _ t -> owner:address -> info:string -> delay_ms:float -> (unit -> unit) -> unit

(** {1 Driving} *)

val step : _ t -> bool
(** Sim: [Sim.step]. Streams: one short poll; [true] if any I/O or
    timer fired. *)

val poll : _ t -> timeout_ms:float -> bool
(** Streams: wait up to [timeout_ms] for I/O (bounded by the next timer
    deadline), service it, fire due timers. Sim: [Sim.step] (the
    timeout is meaningless in logical time). *)

val run : _ t -> unit
(** Sim: run to quiescence. Streams: poll until briefly idle —
    heuristic; prefer {!drive_until}. *)

val drive_until : _ t -> ?deadline_ms:float -> (unit -> bool) -> bool
(** Drive the fabric until the predicate holds. Sim: steps until the
    predicate holds or the event queue drains ([deadline_ms] is a
    simulated-clock bound). Streams: polls until the predicate holds or
    the monotonic clock passes [deadline_ms] (default: 30 s from now).
    Returns the predicate's final value. *)

(** {1 Faults, partitions} *)

val set_fault_hooks : 'a t -> 'a Pti_net.Net.fault_hooks option -> unit
(** Sim: [Net.set_fault_hooks]. Streams: the same record applied as
    send-side middleware ([fh_down] also screens arrivals, so a window
    opening mid-flight kills frames already in kernel buffers). *)

val set_integrity : 'a t -> ('a -> bool) option -> unit
val partition : _ t -> address -> address -> unit
val heal : _ t -> address -> address -> unit

(** {1 Accounting}

    One-line reads of {!stats}, the same on every backend; see
    {!Pti_net.Stats.link_event} for what each count means. *)

val dropped_messages : _ t -> int
val lost_messages : _ t -> int
val retransmissions : _ t -> int
val injected_drops : _ t -> int
val injected_duplicates : _ t -> int
val corrupted_frames : _ t -> int
val integrity_drops : _ t -> int

val received_bytes : _ t -> Pti_net.Stats.category -> int
(** Framed bytes received, on streams; 0 on sim. *)

val total_received_bytes : _ t -> int

val close : _ t -> unit
(** Streams: flush briefly, close every fd, unlink unix sockets.
    No-op on sim. Idempotent. *)
