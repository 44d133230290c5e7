(* Measurement plumbing shared by the workloads: latency samples, a
   pausable meter for the timed phase, the phase clock (heap reading,
   tracing alternation) and the per-layer counters read off peers and
   fabrics. *)

module Transport = Pti_transport.Transport
module Stats = Pti_net.Stats
module Metrics = Pti_obs.Metrics

(* ---- latency samples ---------------------------------------------- *)

(* Samples live outside the OCaml heap, so the benchmark's own storage
   stays out of [peak_heap_mb] and the minor-heap word counts. *)
module Lat = struct
  module A1 = Bigarray.Array1

  type t = {
    mutable a : (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t;
    mutable n : int;
  }

  let create () = { a = A1.create Bigarray.float64 Bigarray.c_layout 65536; n = 0 }

  let add t x =
    if t.n = A1.dim t.a then begin
      let b = A1.create Bigarray.float64 Bigarray.c_layout (2 * t.n) in
      A1.blit t.a (A1.sub b 0 t.n);
      t.a <- b
    end;
    A1.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  (* Nearest rank: the smallest sample with at least [p] of them at or
     below it. *)
  let percentile t p =
    let n = t.n in
    if n = 0 then nan
    else begin
      let s = Array.init n (fun i -> A1.get t.a i) in
      Array.sort Float.compare s;
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      s.(max 0 (min (n - 1) (rank - 1)))
    end
end

(* ---- the timed phase ----------------------------------------------- *)

(* Wall time, minor-heap words and GC activity of the timed phase. It can
   be paused, so work a workload does between its measured windows
   (rotating in a fresh receiver on [type-churn]) is excluded. *)
type meter = {
  mutable running : bool;
  mutable since_ns : int;
  mutable since_words : float;
  mutable since_gc : Gc.stat;
  mutable ns : int;
  mutable words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable promoted_words : float;
}

let meter () =
  {
    running = false;
    since_ns = 0;
    since_words = 0.;
    since_gc = Gc.quick_stat ();
    ns = 0;
    words = 0.;
    minor_collections = 0;
    major_collections = 0;
    promoted_words = 0.;
  }

let resume m =
  if not m.running then begin
    m.running <- true;
    m.since_gc <- Gc.quick_stat ();
    m.since_words <- Gc.minor_words ();
    m.since_ns <- Span.now_ns ()
  end

let pause m =
  if m.running then begin
    let now = Span.now_ns () in
    let words = Gc.minor_words () in
    let g = Gc.quick_stat () in
    m.running <- false;
    m.ns <- m.ns + (now - m.since_ns);
    m.words <- m.words +. (words -. m.since_words);
    m.minor_collections <-
      m.minor_collections + (g.Gc.minor_collections - m.since_gc.Gc.minor_collections);
    m.major_collections <-
      m.major_collections + (g.Gc.major_collections - m.since_gc.Gc.major_collections);
    m.promoted_words <-
      m.promoted_words +. (g.Gc.promoted_words -. m.since_gc.Gc.promoted_words)
  end

let elapsed_ns m = if m.running then m.ns + (Span.now_ns () - m.since_ns) else m.ns

(* ---- the timed phase's clock: heap reading, tracing alternation ---- *)

(* Every workload reports its progress here between ops, as the running
   count of completed ops on the timed-phase clock, and hands its
   latency samples to [sample].

   Heap: the major-heap high-water mark is read when the phase has
   completed [heap_ops] ops (or at its end if it never gets there), so
   the figure reflects a fixed amount of work however fast the host
   ran. The stack keeps structures that grow with traffic in doubling
   arrays, and reading at a time-dependent op count would make the
   figure jump whenever a run's count crossed a power of two.

   Alternation: in the traced run, tracing flips on and off every
   [chunk_ns], so traced and untraced ops share the same warm state and
   drift. Wall-clock throughput and latency come from the untraced
   chunks only, and the tracing overhead is the traced wall time per op
   over the untraced one. Untraced runs never turn tracing on. *)
type phase = {
  span : Span.t;
  tracing : bool;
  lat : Lat.t;  (* samples of ops completed with tracing off *)
  mutable mode_since : int;
  mutable mode_ops : int;
  wall : int array;  (* index 1 = traced *)
  ops : int array;
  heap_ops : int;
  mutable heap_words : int;
}

let chunk_ns = 100_000_000

let phase span ~tracing ~heap_ops =
  {
    span;
    tracing;
    lat = Lat.create ();
    mode_since = 0;
    mode_ops = 0;
    wall = [| 0; 0 |];
    ops = [| 0; 0 |];
    heap_ops;
    heap_words = 0;
  }

let sample p us = if not (Span.enabled p.span) then Lat.add p.lat us

let close_mode p ~now_ns ~ops =
  let i = if Span.enabled p.span then 1 else 0 in
  p.wall.(i) <- p.wall.(i) + (now_ns - p.mode_since);
  p.ops.(i) <- p.ops.(i) + (ops - p.mode_ops);
  p.mode_since <- now_ns;
  p.mode_ops <- ops

let read_heap p = p.heap_words <- (Gc.quick_stat ()).Gc.top_heap_words

let tick p ~now_ns ~ops =
  if p.heap_words = 0 && ops >= p.heap_ops then read_heap p;
  if p.tracing && now_ns - p.mode_since >= chunk_ns then begin
    close_mode p ~now_ns ~ops;
    Span.set_enabled p.span (not (Span.enabled p.span))
  end

let finish p ~now_ns ~ops =
  if p.heap_words = 0 then read_heap p;
  close_mode p ~now_ns ~ops;
  Span.set_enabled p.span false

let peak_heap_mb p =
  float_of_int (p.heap_words * (Sys.word_size / 8)) /. 1048576.

let traced_ops p = p.ops.(1)

(* Correct ops per wall second with tracing off. *)
let ops_per_s p = float_of_int p.ops.(0) /. (float_of_int (max 1 p.wall.(0)) /. 1e9)

let latency_us p pct = Lat.percentile p.lat pct

let overhead_pct p =
  let per i = float_of_int p.wall.(i) /. float_of_int (max 1 p.ops.(i)) in
  if p.ops.(0) = 0 || p.ops.(1) = 0 then 0.
  else 100. *. ((per 1 /. per 0) -. 1.)

(* ---- per-layer counters -------------------------------------------- *)

(* Raw totals; the workloads take [diff] over their timed phase. *)
type counters = {
  handle_hits : int;
  handle_misses : int;
  renegotiations : int;
  batch_messages : int;
  batch_envelopes : int;
  checker_top_hits : int;
  checker_top_computes : int;
  checker_evictions : int;
  fetch_attempts : int;
  fetch_retries : int;
  tdesc_hits : int;
  tdesc_misses : int;
  delivered : int;
  rejected : int;
  decode_failed : int;
  load_failed : int;
  obj_bytes : int;
  tdesc_bytes : int;
  asm_bytes : int;
  messages : int;
  retransmissions : int;
  integrity_drops : int;
}

let zero =
  {
    handle_hits = 0; handle_misses = 0; renegotiations = 0;
    batch_messages = 0; batch_envelopes = 0; checker_top_hits = 0;
    checker_top_computes = 0; checker_evictions = 0; fetch_attempts = 0;
    fetch_retries = 0; tdesc_hits = 0; tdesc_misses = 0; delivered = 0;
    rejected = 0; decode_failed = 0; load_failed = 0; obj_bytes = 0;
    tdesc_bytes = 0; asm_bytes = 0; messages = 0; retransmissions = 0;
    integrity_drops = 0;
  }

let map2 f a b =
  {
    handle_hits = f a.handle_hits b.handle_hits;
    handle_misses = f a.handle_misses b.handle_misses;
    renegotiations = f a.renegotiations b.renegotiations;
    batch_messages = f a.batch_messages b.batch_messages;
    batch_envelopes = f a.batch_envelopes b.batch_envelopes;
    checker_top_hits = f a.checker_top_hits b.checker_top_hits;
    checker_top_computes = f a.checker_top_computes b.checker_top_computes;
    checker_evictions = f a.checker_evictions b.checker_evictions;
    fetch_attempts = f a.fetch_attempts b.fetch_attempts;
    fetch_retries = f a.fetch_retries b.fetch_retries;
    tdesc_hits = f a.tdesc_hits b.tdesc_hits;
    tdesc_misses = f a.tdesc_misses b.tdesc_misses;
    delivered = f a.delivered b.delivered;
    rejected = f a.rejected b.rejected;
    decode_failed = f a.decode_failed b.decode_failed;
    load_failed = f a.load_failed b.load_failed;
    obj_bytes = f a.obj_bytes b.obj_bytes;
    tdesc_bytes = f a.tdesc_bytes b.tdesc_bytes;
    asm_bytes = f a.asm_bytes b.asm_bytes;
    messages = f a.messages b.messages;
    retransmissions = f a.retransmissions b.retransmissions;
    integrity_drops = f a.integrity_drops b.integrity_drops;
  }

let diff after before = map2 ( - ) after before
let add = map2 ( + )

(* Sum of [peer.<addr>.<suffix>] (or [serial.<addr>.<suffix>]) over
   every address in a registry snapshot. Each peer's checker and caches
   are reported under its own address, so on private blocks the sum is
   exact. *)
let sum_suffix snap suffix =
  List.fold_left
    (fun acc (name, v) ->
      if String.ends_with ~suffix:("." ^ suffix) name
         && (String.starts_with ~prefix:"peer." name
            || String.starts_with ~prefix:"serial." name)
         && List.length (String.split_on_char '.' name)
            = 2 + List.length (String.split_on_char '.' suffix)
      then
        acc
        + (match v with
          | Metrics.Counter n -> n
          | Metrics.Gauge g -> int_of_float g
          | Metrics.Histogram _ -> 0)
      else acc)
    0 snap

(* Bytes and messages per category: [bytes cat] and [messages ()] are
   supplied by the fabric (tx+rx framed bytes on streams, the ledger on
   the sim). *)
let of_registry m ~bytes ~messages ~retransmissions ~integrity_drops =
  let snap = Metrics.snapshot m in
  let s = sum_suffix snap in
  {
    handle_hits = s "handle.hits";
    handle_misses = s "handle.misses";
    renegotiations = s "handle.renegotiations";
    batch_messages = s "batch.messages";
    batch_envelopes = s "batch.envelopes";
    checker_top_hits = s "checker.top_hits";
    checker_top_computes = s "checker.top_computes";
    checker_evictions = s "checker.cache_evictions";
    fetch_attempts = s "fetch.attempts";
    fetch_retries = s "fetch.retries";
    tdesc_hits = s "tdesc_cache.hits";
    tdesc_misses = s "tdesc_cache.misses";
    delivered = s "delivered";
    rejected = s "rejected";
    decode_failed = s "decode_failed";
    load_failed = s "load_failed";
    obj_bytes = bytes Stats.Object_msg;
    tdesc_bytes = bytes Stats.Tdesc_request + bytes Stats.Tdesc_reply;
    asm_bytes = bytes Stats.Asm_request + bytes Stats.Asm_reply;
    messages = messages ();
    retransmissions;
    integrity_drops;
  }

let fabric_bytes tr cat =
  Stats.bytes (Transport.stats tr) cat + Transport.received_bytes tr cat

let total_fabric_bytes tr =
  List.fold_left (fun acc c -> acc + fabric_bytes tr c) 0 Stats.all_categories

let of_transport m tr =
  of_registry m ~bytes:(fabric_bytes tr)
    ~messages:(fun () -> Stats.total_messages (Transport.stats tr))
    ~retransmissions:(Transport.retransmissions tr)
    ~integrity_drops:(Transport.integrity_drops tr)
