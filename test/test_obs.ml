(* pti_obs: the bounded LRU cache, the ring buffer and the metrics
   registry. Unit tests pin the exact semantics the middleware relies on
   (recency order, keyed invalidation, counter accounting); qcheck
   properties check the invariants against a model over random operation
   sequences. *)

module Lru = Pti_obs.Lru
module Ring = Pti_obs.Ring
module Metrics = Pti_obs.Metrics

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  nl = 0 || at 0

(* ------------------------------- LRU -------------------------------- *)

let test_lru_basic () =
  let c = Lru.Str.create ~capacity:3 () in
  Alcotest.(check int) "capacity" 3 (Lru.Str.capacity c);
  Alcotest.(check int) "empty" 0 (Lru.Str.length c);
  Lru.Str.put c "a" 1;
  Lru.Str.put c "b" 2;
  Alcotest.(check (option int)) "hit" (Some 1) (Lru.Str.find c "a");
  Alcotest.(check (option int)) "miss" None (Lru.Str.find c "z");
  Lru.Str.put c "a" 10;
  Alcotest.(check (option int)) "overwrite" (Some 10) (Lru.Str.find c "a");
  Alcotest.(check int) "length" 2 (Lru.Str.length c)

let test_lru_eviction_order () =
  let evicted = ref [] in
  let c =
    Lru.Str.create ~on_evict:(fun k _ -> evicted := k :: !evicted)
      ~capacity:3 ()
  in
  Lru.Str.put c "a" 1;
  Lru.Str.put c "b" 2;
  Lru.Str.put c "c" 3;
  (* Refresh "a": the LRU entry is now "b". *)
  ignore (Lru.Str.find c "a");
  Lru.Str.put c "d" 4;
  Alcotest.(check (list string)) "b evicted first" [ "b" ] !evicted;
  Lru.Str.put c "e" 5;
  Alcotest.(check (list string)) "then c" [ "c"; "b" ] !evicted;
  Alcotest.(check bool) "a survived (was refreshed)" true (Lru.Str.mem c "a");
  Alcotest.(check (list string))
    "to_list is MRU-first"
    [ "e"; "d"; "a" ]
    (List.map fst (Lru.Str.to_list c));
  let ctr = Lru.Str.counters c in
  Alcotest.(check int) "eviction counter" 2 ctr.Lru.evictions;
  Alcotest.(check int) "insertions" 5 ctr.Lru.insertions

let test_lru_peek_does_not_refresh () =
  let c = Lru.Str.create ~capacity:2 () in
  Lru.Str.put c "a" 1;
  Lru.Str.put c "b" 2;
  (* peek must not rescue "a" from eviction. *)
  Alcotest.(check (option int)) "peek sees a" (Some 1) (Lru.Str.peek c "a");
  Lru.Str.put c "c" 3;
  Alcotest.(check bool) "a evicted despite peek" false (Lru.Str.mem c "a");
  let ctr = Lru.Str.counters c in
  Alcotest.(check int) "peek is not a hit" 0 ctr.Lru.hits

let test_lru_invalidate_where () =
  let c = Lru.Str.create ~capacity:8 () in
  List.iter (fun k -> Lru.Str.put c k 0) [ "ax"; "ay"; "bx"; "by" ];
  let n = Lru.Str.invalidate_where c (fun k -> k.[0] = 'a') in
  Alcotest.(check int) "two dropped" 2 n;
  Alcotest.(check bool) "bx kept" true (Lru.Str.mem c "bx");
  Alcotest.(check bool) "ax gone" false (Lru.Str.mem c "ax");
  Alcotest.(check int) "none match" 0
    (Lru.Str.invalidate_where c (fun _ -> false));
  let ctr = Lru.Str.counters c in
  Alcotest.(check int) "invalidation counter" 2 ctr.Lru.invalidations

let test_lru_set_capacity () =
  let c = Lru.Str.create ~capacity:4 () in
  List.iter (fun k -> Lru.Str.put c k 0) [ "a"; "b"; "c"; "d" ];
  Lru.Str.set_capacity c 2;
  Alcotest.(check int) "shrunk" 2 (Lru.Str.length c);
  Alcotest.(check (list string))
    "most recent kept"
    [ "d"; "c" ]
    (List.map fst (Lru.Str.to_list c));
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.set_capacity: capacity must be >= 1") (fun () ->
      Lru.Str.set_capacity c 0);
  Alcotest.check_raises "create capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity must be >= 1") (fun () ->
      ignore (Lru.Str.create ~capacity:0 ()))

let test_lru_clear () =
  let evicted = ref [] in
  let c =
    Lru.Str.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~capacity:4 ()
  in
  Lru.Str.put c "a" 1;
  Lru.Str.put c "b" 2;
  Lru.Str.clear c;
  Alcotest.(check int) "empty after clear" 0 (Lru.Str.length c);
  (* Regression: [clear] used to reset the table without firing
     [on_evict], silently desyncing dependency bookkeeping hung off the
     callback (unlike [remove]/capacity eviction, which always fire). *)
  Alcotest.(check (list string))
    "clear fires on_evict per entry"
    [ "a"; "b" ]
    (List.sort String.compare !evicted);
  Lru.Str.remove c "nope";
  Lru.Str.put c "c" 3;
  Lru.Str.remove c "c";
  Alcotest.(check int) "remove fires on_evict too" 3 (List.length !evicted);
  (* Re-entrancy: the callback observes the already-emptied cache. *)
  let c2 = ref None in
  let seen_len = ref (-1) in
  let cache =
    Lru.Str.create
      ~on_evict:(fun _ _ ->
        match !c2 with
        | Some c -> seen_len := Lru.Str.length c
        | None -> ())
      ~capacity:4 ()
  in
  c2 := Some cache;
  Lru.Str.put cache "x" 1;
  Lru.Str.clear cache;
  Alcotest.(check int) "callback sees emptied cache" 0 !seen_len

(* qcheck: random put/find/remove/invalidate traces against an
   association-list model. The model keeps entries MRU-first, mirroring
   the recency discipline. *)

type op = Put of int * int | Find of int | Remove of int | Invalidate of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Put (k, v)) (int_bound 15) (int_bound 100));
        (3, map (fun k -> Find k) (int_bound 15));
        (1, map (fun k -> Remove k) (int_bound 15));
        (1, map (fun k -> Invalidate k) (int_bound 15));
      ])

let ops_arbitrary =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Put (k, v) -> Printf.sprintf "put %d %d" k v
             | Find k -> Printf.sprintf "find %d" k
             | Remove k -> Printf.sprintf "rm %d" k
             | Invalidate k -> Printf.sprintf "inv %d" k)
           ops))
    QCheck.Gen.(list_size (int_range 0 120) op_gen)

module Imap = Map.Make (Int)

let run_trace ~capacity ops =
  let c = Lru.Str.create ~capacity () in
  let key k = string_of_int k in
  (* Model: MRU-first list of (key, value). *)
  let model = ref [] in
  let model_put k v =
    model := (k, v) :: List.remove_assoc k !model;
    if List.length !model > capacity then
      model := List.filteri (fun i _ -> i < capacity) !model
  in
  let ok = ref true in
  List.iter
    (fun op ->
      match op with
      | Put (k, v) ->
          Lru.Str.put c (key k) v;
          model_put k v
      | Find k -> (
          let got = Lru.Str.find c (key k) in
          match List.assoc_opt k !model with
          | Some v ->
              if got <> Some v then ok := false;
              (* find refreshes recency *)
              model := (k, v) :: List.remove_assoc k !model
          | None -> if got <> None then ok := false)
      | Remove k ->
          Lru.Str.remove c (key k);
          model := List.remove_assoc k !model
      | Invalidate k ->
          let p s = int_of_string s mod 4 = k mod 4 in
          let dropped = Lru.Str.invalidate_where c p in
          let before = List.length !model in
          model := List.filter (fun (mk, _) -> not (p (key mk))) !model;
          if dropped <> before - List.length !model then ok := false)
    ops;
  (c, !model, !ok)

let prop_lru_capacity_never_exceeded =
  QCheck.Test.make ~name:"lru: length <= capacity always" ~count:300
    QCheck.(pair (int_range 1 6) ops_arbitrary)
    (fun (capacity, ops) ->
      let c, _, _ = run_trace ~capacity ops in
      Lru.Str.length c <= capacity)

let prop_lru_matches_model =
  QCheck.Test.make
    ~name:"lru: contents and order match the MRU model" ~count:300
    QCheck.(pair (int_range 1 6) ops_arbitrary)
    (fun (capacity, ops) ->
      let c, model, ok = run_trace ~capacity ops in
      ok
      && List.map fst (Lru.Str.to_list c)
         = List.map (fun (k, _) -> string_of_int k) model)

let prop_lru_hit_after_put =
  QCheck.Test.make ~name:"lru: put k v then find k = Some v" ~count:300
    QCheck.(triple (int_range 1 6) ops_arbitrary (pair (int_bound 15) int))
    (fun (capacity, ops, (k, v)) ->
      let c, _, _ = run_trace ~capacity ops in
      Lru.Str.put c (string_of_int k) v;
      Lru.Str.find c (string_of_int k) = Some v)

let prop_lru_invalidate_sound =
  QCheck.Test.make
    ~name:"lru: invalidate_where drops exactly the matching keys" ~count:300
    QCheck.(pair (int_range 1 8) ops_arbitrary)
    (fun (capacity, ops) ->
      let c, _, _ = run_trace ~capacity ops in
      let before = List.map fst (Lru.Str.to_list c) in
      let p k = String.length k > 0 && Char.code k.[0] mod 2 = 0 in
      let n = Lru.Str.invalidate_where c p in
      let after = List.map fst (Lru.Str.to_list c) in
      List.for_all (fun k -> not (p k)) after
      && List.length before = List.length after + n
      && List.for_all (fun k -> p k || List.mem k after) before)

(* Regression: an [on_evict] callback that re-enters the cache used to
   corrupt the recency list. A sweep holding references to doomed nodes
   could unlink a node the callback had already dropped — detaching an
   already-detached node nulls the list head while the table stays
   populated, and the eviction loop's [assert false] trips on the next
   over-capacity insert. Dropping a dead node must be a no-op. *)

let test_lru_reentrant_evict_put () =
  let c = ref None in
  let cache =
    Lru.Str.create
      ~on_evict:(fun k _ ->
        match !c with
        | Some cache when k = "a" ->
            (* Insert while the eviction that doomed "a" is unwinding:
               this recurses into the eviction loop. *)
            Lru.Str.put cache "r" 99
        | _ -> ())
      ~capacity:2 ()
  in
  c := Some cache;
  Lru.Str.put cache "a" 1;
  Lru.Str.put cache "b" 2;
  (* Over capacity: evicts "a"; its callback inserts "r", which evicts
     "b" before the outer loop resumes. *)
  Lru.Str.put cache "c" 3;
  Alcotest.(check int) "within capacity" 2 (Lru.Str.length cache);
  Alcotest.(check (list string))
    "recency list agrees with the table" [ "r"; "c" ]
    (List.map fst (Lru.Str.to_list cache));
  Alcotest.(check int) "both eviction rounds counted" 2
    (Lru.Str.counters cache).Lru.evictions;
  (* Still usable: a later over-capacity insert must not assert. *)
  Lru.Str.put cache "z" 26;
  Alcotest.(check (option int))
    "usable after reentrant eviction" (Some 26)
    (Lru.Str.find cache "z")

let test_lru_reentrant_invalidate_remove () =
  let fired = ref [] in
  let c = ref None in
  let cache =
    Lru.Str.create
      ~on_evict:(fun k _ ->
        fired := k :: !fired;
        match !c with
        | Some cache when k = "a" ->
            (* Remove a key the sweep has also doomed but not yet
               reached: the sweep must treat the dead node as done. *)
            Lru.Str.remove cache "b"
        | _ -> ())
      ~capacity:3 ()
  in
  c := Some cache;
  (* Insertion order puts "a" at the tail, so the sweep drops it first
     while "b" is still pending in its doomed list. *)
  Lru.Str.put cache "a" 1;
  Lru.Str.put cache "b" 2;
  Lru.Str.put cache "keep" 0;
  let dropped =
    Lru.Str.invalidate_where cache (fun k -> k = "a" || k = "b")
  in
  Alcotest.(check int) "both doomed keys swept" 2 dropped;
  Alcotest.(check (list string))
    "each callback fired exactly once" [ "a"; "b" ]
    (List.sort compare !fired);
  Alcotest.(check (list string))
    "survivor intact" [ "keep" ]
    (List.map fst (Lru.Str.to_list cache));
  Alcotest.(check int) "no double-counted invalidations" 2
    (Lru.Str.counters cache).Lru.invalidations;
  (* The corrupted list used to orphan survivors and trip the eviction
     loop on later inserts; refill past capacity to prove it cannot. *)
  List.iter (fun k -> Lru.Str.put cache k 0) [ "x"; "y"; "z"; "w" ];
  Alcotest.(check int) "refill respects capacity" 3 (Lru.Str.length cache)

(* ------------------------------- Ring ------------------------------- *)

let test_ring_basic () =
  let r = Ring.create ~capacity:3 () in
  Alcotest.(check (list int)) "empty" [] (Ring.to_list r);
  Ring.push r 1;
  Ring.push r 2;
  Alcotest.(check (list int)) "fifo" [ 1; 2 ] (Ring.to_list r);
  Ring.push r 3;
  Ring.push r 4;
  Alcotest.(check (list int)) "oldest displaced" [ 2; 3; 4 ] (Ring.to_list r);
  Alcotest.(check int) "dropped" 1 (Ring.dropped r);
  Alcotest.(check int) "length" 3 (Ring.length r);
  Ring.clear r;
  Alcotest.(check (list int)) "cleared" [] (Ring.to_list r);
  Alcotest.(check int) "dropped reset" 0 (Ring.dropped r);
  Ring.push r 9;
  Alcotest.(check (list int)) "usable after clear" [ 9 ] (Ring.to_list r)

let prop_ring_keeps_last_capacity =
  QCheck.Test.make ~name:"ring: to_list = last capacity pushes" ~count:300
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(int_range 0 60) int))
    (fun (capacity, xs) ->
      let r = Ring.create ~capacity () in
      List.iter (Ring.push r) xs;
      let n = List.length xs in
      let expected =
        List.filteri (fun i _ -> i >= n - capacity) xs
      in
      Ring.to_list r = expected
      && Ring.dropped r = max 0 (n - capacity)
      && Ring.length r = min n capacity)

let test_ring_rejects_nonpositive_capacity () =
  (* [Ring.to_list]'s walk assumes at least one live slot; a 0-capacity
     ring would reach its [assert false]. Rejected at construction. *)
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Ring.create: capacity must be >= 1") (fun () ->
      ignore (Ring.create ~capacity:0 ()));
  Alcotest.check_raises "negative capacity rejected"
    (Invalid_argument "Ring.create: capacity must be >= 1") (fun () ->
      ignore (Ring.create ~capacity:(-3) ()))

(* ------------------------------ Metrics ----------------------------- *)

let test_metrics_counters_and_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a.count" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter value" 5 (Metrics.counter_value c);
  let c' = Metrics.counter m "a.count" in
  Metrics.incr c';
  Alcotest.(check int) "get-or-create shares the cell" 6
    (Metrics.counter_value c);
  let g = Metrics.gauge m "a.gauge" in
  Metrics.set_gauge g 2.5;
  Metrics.gauge_fn m "a.fn" (fun () -> 7.);
  Metrics.gauge_fn m "a.fn" (fun () -> 8.);
  (match Metrics.find m "a.fn" with
  | Some (Metrics.Gauge v) ->
      Alcotest.(check (float 0.)) "gauge_fn replaces" 8. v
  | _ -> Alcotest.fail "a.fn missing");
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: \"a.count\" is a counter, not a gauge")
    (fun () -> ignore (Metrics.gauge m "a.count"));
  let names = List.map fst (Metrics.snapshot m) in
  Alcotest.(check (list string))
    "snapshot sorted"
    [ "a.count"; "a.fn"; "a.gauge" ]
    names

(* The fixed log-linear layout: 8 steps per octave, so 5 ms lands in
   (4.5, 5], 50 ms in (48, 52] and 5000 ms in (4608, 5120]. Snapshots
   list only the non-empty buckets. *)
let test_metrics_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  List.iter (Metrics.observe h) [ 0.5; 5.; 5.; 50.; 5000. ];
  match Metrics.find m "lat" with
  | Some (Metrics.Histogram s) ->
      Alcotest.(check int) "count" 5 s.Metrics.h_count;
      Alcotest.(check (float 1e-6)) "sum" 5060.5 s.Metrics.h_sum;
      Alcotest.(check (float 0.)) "min" 0.5 s.Metrics.h_min;
      Alcotest.(check (float 0.)) "max" 5000. s.Metrics.h_max;
      Alcotest.(check (list (pair (float 0.) int)))
        "non-empty buckets only"
        [ (0.5, 1); (5., 2); (52., 1); (5120., 1) ]
        (Array.to_list s.Metrics.h_buckets);
      Alcotest.(check (option (float 0.)))
        "p50 estimate" (Some 5.)
        (Metrics.quantile s 0.5);
      Alcotest.(check (option (float 0.)))
        "p80 is 50's bucket bound" (Some 52.)
        (Metrics.quantile s 0.8);
      Alcotest.(check (option (float 0.)))
        "top bucket clamped to the observed max" (Some 5000.)
        (Metrics.quantile s 0.99)
  | _ -> Alcotest.fail "lat missing"

let snap_of m name =
  match Metrics.find m name with
  | Some (Metrics.Histogram s) -> s
  | _ -> Alcotest.fail (name ^ " missing")

(* Nearest-rank edge pins: rank = ceil(p * count) clamped to [1, count];
   rank 1 and rank count report the observed extremes exactly, interior
   ranks the holding bucket's bound clamped to [min, max]. *)
let test_metrics_quantile_edges () =
  let m = Metrics.create () in
  let h1 = Metrics.histogram m "one" in
  Metrics.observe h1 5.;
  let s1 = snap_of m "one" in
  List.iter
    (fun p ->
      Alcotest.(check (option (float 0.)))
        (Printf.sprintf "1-entry p%g" (p *. 100.))
        (Some 5.) (Metrics.quantile s1 p))
    [ 0.0; 0.5; 1.0 ];
  let h2 = Metrics.histogram m "two" in
  Metrics.observe h2 0.5;
  Metrics.observe h2 4.2;
  let s2 = snap_of m "two" in
  Alcotest.(check (option (float 0.)))
    "2-entry p0 is the minimum" (Some 0.5)
    (Metrics.quantile s2 0.0);
  Alcotest.(check (option (float 0.)))
    "2-entry p50 is the smaller observation" (Some 0.5)
    (Metrics.quantile s2 0.5);
  Alcotest.(check (option (float 0.)))
    "2-entry p100 is the maximum" (Some 4.2)
    (Metrics.quantile s2 1.0);
  (* An interior rank reports its bucket's upper bound: 0.31 is in
     (0.28125, 0.3125]. *)
  let h3 = Metrics.histogram m "mid" in
  List.iter (Metrics.observe h3) [ 0.3; 0.31; 42. ];
  Alcotest.(check (option (float 0.)))
    "interior rank reports the bucket bound" (Some 0.3125)
    (Metrics.quantile (snap_of m "mid") 0.5);
  (* Underflow (<= 2^-10) and overflow (> 2^20) buckets. *)
  let h4 = Metrics.histogram m "ovf" in
  List.iter (Metrics.observe h4) [ 1e-4; 3e6; 4e6 ];
  let s4 = snap_of m "ovf" in
  Alcotest.(check (list (pair (float 0.) int)))
    "underflow and overflow buckets"
    [ (Float.ldexp 1. (-10), 1); (infinity, 2) ]
    (Array.to_list s4.Metrics.h_buckets);
  Alcotest.(check (option (float 0.)))
    "overflow rank reports the observed max" (Some 4e6)
    (Metrics.quantile s4 0.5);
  Alcotest.(check (option (float 0.)))
    "underflow p0 is the minimum" (Some 1e-4)
    (Metrics.quantile s4 0.0)

(* Snapshotting mid-stream must not disturb later observations: the
   allocation-free bucket search keeps no per-observe state, so quantile
   estimates after interleaved observe/snapshot rounds equal those of an
   uninterrupted run over the same values. *)
let test_metrics_histogram_interleaved_snapshots () =
  let values =
    [ 0.3; 7.; 7.; 1.5; 120.; 4.; 4.; 0.9; 30.; 9.; 1.1; 0.2 ]
  in
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  List.iteri
    (fun i v ->
      Metrics.observe h v;
      if i mod 3 = 0 then
        (* Interleaved snapshot: read quantiles mid-stream. *)
        match Metrics.find m "lat" with
        | Some (Metrics.Histogram s) ->
            Alcotest.(check int) "running count" (i + 1) s.Metrics.h_count
        | _ -> Alcotest.fail "lat missing")
    values;
  let control = Metrics.create () in
  let hc = Metrics.histogram control "lat" in
  List.iter (Metrics.observe hc) values;
  match (Metrics.find m "lat", Metrics.find control "lat") with
  | Some (Metrics.Histogram a), Some (Metrics.Histogram b) ->
      List.iter
        (fun q ->
          Alcotest.(check (option (float 0.)))
            (Printf.sprintf "q%.2f unaffected by snapshots" q)
            (Metrics.quantile b q) (Metrics.quantile a q))
        [ 0.25; 0.5; 0.9; 0.99 ];
      Alcotest.(check (float 0.)) "sums equal" b.Metrics.h_sum a.Metrics.h_sum;
      Alcotest.(check (list (pair (float 0.) int)))
        "bucket fill equal"
        (Array.to_list b.Metrics.h_buckets)
        (Array.to_list a.Metrics.h_buckets)
  | _ -> Alcotest.fail "histogram missing"

let test_metrics_json () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "c") 3;
  Metrics.set_gauge (Metrics.gauge m "g") 1.5;
  let h = Metrics.histogram m "h" in
  Metrics.observe h 0.5;
  let json = Metrics.to_json (Metrics.snapshot m) in
  Alcotest.(check bool) "only the non-empty bucket in json" true
    (contains ~needle:"\"buckets\":[[0.5,1]]" json);
  Alcotest.(check bool) "counter in json" true
    (contains ~needle:"\"c\":3" json);
  Alcotest.(check bool) "gauge in json" true
    (contains ~needle:"\"g\":1.5" json);
  Alcotest.(check bool) "histogram count in json" true
    (contains ~needle:"\"count\":1" json);
  (* An empty histogram has nan min/max: must still be valid JSON (null). *)
  let m2 = Metrics.create () in
  ignore (Metrics.histogram m2 "empty");
  let json2 = Metrics.to_json (Metrics.snapshot m2) in
  Alcotest.(check bool) "nan becomes null" true
    (contains ~needle:"null" json2)

let test_metrics_reset () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  Metrics.incr c;
  let live = ref 3. in
  Metrics.gauge_fn m "fn" (fun () -> !live);
  Metrics.reset m;
  Alcotest.(check int) "counter zeroed" 0 (Metrics.counter_value c);
  live := 4.;
  match Metrics.find m "fn" with
  | Some (Metrics.Gauge v) ->
      Alcotest.(check (float 0.)) "gauge callback survives reset" 4. v
  | _ -> Alcotest.fail "fn missing"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "lru",
        [
          Alcotest.test_case "basic put/find" `Quick test_lru_basic;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "peek does not refresh" `Quick
            test_lru_peek_does_not_refresh;
          Alcotest.test_case "invalidate_where" `Quick
            test_lru_invalidate_where;
          Alcotest.test_case "set_capacity" `Quick test_lru_set_capacity;
          Alcotest.test_case "clear and remove" `Quick test_lru_clear;
          Alcotest.test_case "reentrant on_evict: put during eviction"
            `Quick test_lru_reentrant_evict_put;
          Alcotest.test_case "reentrant on_evict: remove during sweep"
            `Quick test_lru_reentrant_invalidate_remove;
          QCheck_alcotest.to_alcotest prop_lru_capacity_never_exceeded;
          QCheck_alcotest.to_alcotest prop_lru_matches_model;
          QCheck_alcotest.to_alcotest prop_lru_hit_after_put;
          QCheck_alcotest.to_alcotest prop_lru_invalidate_sound;
        ] );
      ( "ring",
        [
          Alcotest.test_case "push/wrap/clear" `Quick test_ring_basic;
          Alcotest.test_case "nonpositive capacity rejected" `Quick
            test_ring_rejects_nonpositive_capacity;
          QCheck_alcotest.to_alcotest prop_ring_keeps_last_capacity;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_metrics_counters_and_gauges;
          Alcotest.test_case "histogram buckets" `Quick test_metrics_histogram;
          Alcotest.test_case "quantile edge ranks" `Quick
            test_metrics_quantile_edges;
          Alcotest.test_case "histogram vs interleaved snapshots" `Quick
            test_metrics_histogram_interleaved_snapshots;
          Alcotest.test_case "json output" `Quick test_metrics_json;
          Alcotest.test_case "reset keeps registrations" `Quick
            test_metrics_reset;
        ] );
    ]
