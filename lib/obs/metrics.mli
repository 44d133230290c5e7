(** A process-wide metrics registry: named counters, gauges and
    histograms every layer reports through, with one
    [snapshot]/[pp]/[to_json] surface.

    Naming scheme (see HACKING.md): dot-separated lowercase paths,
    [<layer>.<instance>.<object>.<measure>] — e.g.
    [peer.receiver.tdesc_cache.hits], [net.latency_ms.object],
    [checker.cache.evictions]. Instruments are get-or-create by name:
    asking twice for the same counter returns the same cell; asking for an
    existing name with a different instrument kind raises
    [Invalid_argument]. Gauge callbacks ({!gauge_fn}) replace a previous
    callback under the same name, so a re-created subsystem can re-bind
    its probes.

    {b Domain safety.} A registry may be shared across OCaml 5 domains:
    counters are [Atomic.t] cells, gauge and histogram writes are
    guarded by a per-instrument mutex (the histogram hot path stays
    allocation-free), and registration by a registry-wide mutex.
    {!snapshot} merges instrument state under the same locks, so a
    snapshot taken while other domains report is internally consistent —
    a histogram's bucket counts always sum to its count. Gauge
    {e callbacks} run on the snapshotting domain and are only as safe as
    the state they probe. *)

type t

val create : unit -> t

val default : t
(** The shared process-wide registry, for callers that do not thread an
    explicit one. *)

(** {1 Instruments} *)

type counter

val counter : t -> string -> counter
val incr : counter -> unit

val add : counter -> int -> unit
(** Allocation-free, like {!incr}: the amount is never a boxed option. *)

val counter_value : counter -> int
val clear_counter : counter -> unit

type gauge

val gauge : t -> string -> gauge
val set_gauge : gauge -> float -> unit

val gauge_fn : t -> string -> (unit -> float) -> unit
(** A probe evaluated at snapshot time — how cache counters and sizes are
    surfaced without copying them on every update. *)

type histogram

val histogram : t -> string -> histogram
(** Every histogram shares one fixed log-linear bucket layout: 8 linear
    sub-buckets per octave from 2{^-10} to 2{^20} (in ms: about 1 µs to
    17 minutes), an underflow bucket for values at or below 2{^-10} and
    an overflow bucket above 2{^20}. Adjacent bounds differ by at most
    a factor 1.125, which bounds the error of {!quantile}. *)

val observe : histogram -> float -> unit
(** Allocation-free: a binary search over the shared layout. *)

val clear_histogram : histogram -> unit
(** Forget every observation of one histogram (what {!reset} does to
    each histogram of a registry). *)

(** {1 Snapshots} *)

type hist_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;  (** [nan] when empty. *)
  h_max : float;  (** [nan] when empty. *)
  h_buckets : (float * int) array;
      (** (upper bound, count) of each non-empty bucket, in increasing
          bound order; the overflow bucket's bound is [infinity]. *)
}

val snapshot_histogram : histogram -> hist_snapshot
(** A consistent snapshot of one histogram, without a registry lookup. *)

val quantile : hist_snapshot -> float -> float option
(** Nearest-rank estimate: the observation of rank [ceil(p * count)],
    clamped to [[1, count]], is reported as the upper bound of its
    bucket clamped to the observed [[h_min, h_max]]. Rank 1 reports
    [h_min] and rank [count] reports [h_max] exactly. Between them, for
    a true value [v] in [[2{^-10}, 2{^20}]] the estimate lies in
    [[v, 1.125 v]] (at most 12.5 % high); below 2{^-10} it is at most
    2{^-10} high. [None] when the histogram is empty. *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of hist_snapshot

type snapshot = (string * value) list
(** Sorted by metric name. *)

val snapshot : t -> snapshot
val find : t -> string -> value option
(** Snapshot-time lookup of a single metric. *)

val pp : Format.formatter -> snapshot -> unit
(** Aligned name/value table; histograms show count, mean and estimated
    p50/p95/max. *)

val to_json : snapshot -> string
(** One JSON object keyed by metric name; histograms become
    [{"count":…,"sum":…,"min":…,"max":…,"buckets":[[le,count],…]}]. *)

val json_float : float -> string
(** The float rendering {!to_json} uses ([null] for NaN, quoted
    infinities, integral floats without a fraction) — shared with every
    other JSON emitter in the repo so reports stay style-uniform. *)

val reset : t -> unit
(** Zeroes counters, gauges and histograms; keeps registrations (including
    gauge callbacks). *)
