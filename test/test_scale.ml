(* pti_scale: the workload generators (zipf, churn) are pure functions
   of the seed, and the driver's whole run — counts, caches, trace hash
   — replays identically under an equal seed. The flash-crowd dedup and
   handle-table pool claims in the report are checked here at a size
   small enough for the test suite. *)

module Splitmix = Pti_util.Splitmix
module Zipf = Pti_scale.Zipf
module Churn = Pti_scale.Churn
module Driver = Pti_scale.Driver
module Peer = Pti_core.Peer
module Metrics = Pti_obs.Metrics

(* ------------------------------ zipf ------------------------------- *)

let seed_gen = QCheck.(map Int64.of_int (int_range 0 1_000_000))

let prop_zipf_seed_determinism =
  QCheck.Test.make ~name:"zipf: equal seeds draw equal rank sequences"
    ~count:100
    QCheck.(pair seed_gen (int_range 1 64))
    (fun (seed, n) ->
      let z = Zipf.create ~n ~s:1.1 in
      let draw seed =
        let rng = Splitmix.create seed in
        List.init 200 (fun _ -> Zipf.sample z rng)
      in
      draw seed = draw seed)

let prop_zipf_pmf_monotone =
  QCheck.Test.make ~name:"zipf: pmf strictly decreasing in rank (s > 0)"
    ~count:100
    QCheck.(pair (int_range 2 128) (float_range 0.1 3.0))
    (fun (n, s) ->
      let z = Zipf.create ~n ~s in
      let ok = ref true in
      for r = 0 to n - 2 do
        if not (Zipf.pmf z r > Zipf.pmf z (r + 1)) then ok := false
      done;
      !ok)

let prop_zipf_sample_in_range =
  QCheck.Test.make ~name:"zipf: samples land in [0; n)" ~count:100
    QCheck.(pair seed_gen (int_range 1 32))
    (fun (seed, n) ->
      let z = Zipf.create ~n ~s:0.9 in
      let rng = Splitmix.create seed in
      let ok = ref true in
      for _ = 1 to 500 do
        let r = Zipf.sample z rng in
        if r < 0 || r >= n then ok := false
      done;
      !ok)

let prop_zipf_empirical_rank_order =
  (* With a pronounced exponent, rank 0 must empirically out-draw the
     tail rank over a modest sample — the popularity skew the caches
     rely on actually shows up in the draws. *)
  QCheck.Test.make ~name:"zipf: rank 0 out-draws the tail empirically"
    ~count:50
    QCheck.(pair seed_gen (int_range 4 32))
    (fun (seed, n) ->
      let z = Zipf.create ~n ~s:1.5 in
      let rng = Splitmix.create seed in
      let counts = Array.make n 0 in
      for _ = 1 to 2000 do
        let r = Zipf.sample z rng in
        counts.(r) <- counts.(r) + 1
      done;
      counts.(0) > counts.(n - 1))

(* ------------------------------ churn ------------------------------ *)

let churn_gen =
  QCheck.(triple seed_gen (int_range 1 200) (float_range 0.0 4.0))

let prop_churn_conserves_sessions =
  QCheck.Test.make
    ~name:"churn: one arrival and one departure per session" ~count:100
    churn_gen
    (fun (seed, sessions, churn) ->
      let rng = Splitmix.create seed in
      let tl = Churn.build ~sessions ~churn ~horizon_ms:60_000. rng in
      let arrivals = ref 0 and departures = ref 0 in
      for i = 0 to Churn.length tl - 1 do
        match Churn.event tl i with
        | Churn.Arrive _ -> incr arrivals
        | Churn.Depart _ -> incr departures
      done;
      Churn.length tl = 2 * sessions
      && !arrivals = sessions
      && !departures = sessions)

let prop_churn_live_count_sane =
  QCheck.Test.make
    ~name:"churn: live count never negative, ends at zero" ~count:100
    churn_gen
    (fun (seed, sessions, churn) ->
      let rng = Splitmix.create seed in
      let tl = Churn.build ~sessions ~churn ~horizon_ms:60_000. rng in
      let live = ref 0 and ok = ref true in
      for i = 0 to Churn.length tl - 1 do
        (match Churn.event tl i with
        | Churn.Arrive _ -> incr live
        | Churn.Depart _ -> decr live);
        if !live < 0 then ok := false
      done;
      !ok && !live = 0)

let prop_churn_ordered_within_horizon =
  QCheck.Test.make
    ~name:"churn: timestamps sorted; every life within the horizon"
    ~count:100 churn_gen
    (fun (seed, sessions, churn) ->
      let horizon_ms = 60_000. in
      let rng = Splitmix.create seed in
      let tl = Churn.build ~sessions ~churn ~horizon_ms rng in
      let sorted = ref true in
      for i = 1 to Churn.length tl - 1 do
        if Churn.at tl i < Churn.at tl (i - 1) then sorted := false
      done;
      let lives_ok = ref true in
      for id = 0 to sessions - 1 do
        let a = Churn.arrive_ms tl id and d = Churn.depart_ms tl id in
        if not (0. <= a && a < d && d <= horizon_ms) then lives_ok := false
      done;
      !sorted && !lives_ok)

let prop_churn_zero_means_immortal =
  QCheck.Test.make ~name:"churn 0: every session departs at the horizon"
    ~count:100
    QCheck.(pair seed_gen (int_range 1 100))
    (fun (seed, sessions) ->
      let horizon_ms = 60_000. in
      let rng = Splitmix.create seed in
      let tl = Churn.build ~sessions ~churn:0. ~horizon_ms rng in
      let ok = ref true in
      for id = 0 to sessions - 1 do
        if Churn.depart_ms tl id <> horizon_ms then ok := false
      done;
      !ok)

(* ------------------------------ driver ----------------------------- *)

let small_config =
  {
    Driver.default_config with
    Driver.sessions = 400;
    flash_at_ms = Some 30_000.;
    seed = 9L;
  }

let test_driver_deterministic_trace () =
  let a = Driver.run small_config and b = Driver.run small_config in
  Alcotest.(check int64)
    "equal seeds, equal trace hashes" a.Driver.r_trace_hash
    b.Driver.r_trace_hash;
  Alcotest.(check int) "equal delivery counts" a.Driver.r_deliveries
    b.Driver.r_deliveries;
  let c = Driver.run { small_config with Driver.seed = 10L } in
  Alcotest.(check bool) "different seed, different trace" true
    (c.Driver.r_trace_hash <> a.Driver.r_trace_hash)

let test_driver_healthy_run () =
  let r = Driver.run small_config in
  Alcotest.(check int) "every session arrived" small_config.Driver.sessions
    r.Driver.r_arrived;
  Alcotest.(check int) "every session departed" small_config.Driver.sessions
    r.Driver.r_departed;
  Alcotest.(check bool) "conformant traffic delivered" true
    (r.Driver.r_deliveries > 0);
  Alcotest.(check bool) "trap families rejected" true
    (r.Driver.r_rejections > 0);
  Alcotest.(check int) "nothing left in flight" 0 r.Driver.r_undelivered

let test_driver_flash_dedup () =
  (* The flash crowd thundering-herds one brand-new type at every live
     session; the in-flight dedup must collapse its fetches to
     O(shards), not O(sessions). The hot assembly carries two classes
     (Person + Address), so allow 2 description fetches per shard. *)
  let shards = 2 in
  let r = Driver.run { small_config with Driver.shards } in
  Alcotest.(check bool) "flash reached a crowd" true
    (r.Driver.r_flash_sends > 50);
  Alcotest.(check bool) "flash tdesc fetches O(shards)" true
    (r.Driver.r_flash_tdesc_fetches <= 2 * shards);
  Alcotest.(check bool) "flash assembly fetches O(shards)" true
    (r.Driver.r_flash_asm_fetches <= shards)

let test_driver_pool_recycled () =
  let r = Driver.run small_config in
  Alcotest.(check bool) "handle tables parked for reuse" true
    (r.Driver.r_pool_recycled > 0)

let test_driver_metrics_namespace () =
  let m = Metrics.create () in
  let _ = Driver.run ~metrics:m { small_config with Driver.sessions = 100 } in
  let get name =
    match Metrics.find m name with
    | Some v -> v
    | None -> Alcotest.failf "metric %s missing" name
  in
  (match get "scale.deliveries" with
  | Metrics.Counter n -> Alcotest.(check bool) "deliveries counted" true (n > 0)
  | _ -> Alcotest.fail "scale.deliveries not a counter");
  (match get "scale.latency_ms" with
  | Metrics.Histogram h ->
      Alcotest.(check bool) "latencies observed" true (h.Metrics.h_count > 0)
  | _ -> Alcotest.fail "scale.latency_ms not a histogram");
  match get "scale.sessions.live" with
  | Metrics.Gauge v ->
      Alcotest.(check (float 0.)) "no sessions live at quiescence" 0. v
  | _ -> Alcotest.fail "scale.sessions.live not a gauge"

let test_shared_pool_roundtrip () =
  (* The flyweight block parks released receiver handle tables and hands
     them back to the next peer that needs one. *)
  let sh = Peer.create_shared ~handle_table_capacity:8 () in
  let transport = Pti_transport.Transport.of_net (Pti_net.Net.create ~seed:3L ()) in
  let a = Peer.create ~shared:sh ~handles:true ~transport "a"
  and b = Peer.create ~shared:sh ~handles:true ~transport "b" in
  Alcotest.(check int) "pool starts empty" 0 (Peer.shared_pool_size sh);
  Peer.install_assembly a (Pti_demo.Demo_types.news_assembly ());
  let person name age =
    Pti_demo.Demo_types.make_news_person (Peer.registry a) ~name ~age
  in
  Peer.register_interest b ~interest:Pti_demo.Demo_types.news_person
    (fun ~from:_ _ -> ());
  Peer.send_value a ~dst:"b" (person "n" 1);
  Pti_transport.Transport.run transport;
  Peer.release_handle_tables b;
  Alcotest.(check bool) "receiver table parked" true
    (Peer.shared_pool_size sh > 0);
  let before = Peer.shared_pool_size sh in
  let c = Peer.create ~shared:sh ~handles:true ~transport "c" in
  Peer.register_interest c ~interest:Pti_demo.Demo_types.news_person
    (fun ~from:_ _ -> ());
  Peer.send_value a ~dst:"c" (person "m" 2);
  Pti_transport.Transport.run transport;
  Alcotest.(check int) "new receiver drew from the pool" (before - 1)
    (Peer.shared_pool_size sh)

let test_report_json_shape () =
  let r = Driver.run { small_config with Driver.sessions = 50 } in
  let js = Driver.report_to_json ~wall_ms:1.5 r in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json mentions %s" needle)
        true
        (let len = String.length js and nlen = String.length needle in
         let rec scan i =
           i + nlen <= len && (String.sub js i nlen = needle || scan (i + 1))
         in
         scan 0))
    [
      "\"sessions\"";
      "\"deliveries\"";
      "\"deliveries_per_sec\"";
      "\"flash_tdesc_fetches\"";
      "\"trace_hash\"";
      "\"wall_ms\"";
    ]

let () =
  Alcotest.run "scale"
    [
      ( "zipf",
        [
          QCheck_alcotest.to_alcotest prop_zipf_seed_determinism;
          QCheck_alcotest.to_alcotest prop_zipf_pmf_monotone;
          QCheck_alcotest.to_alcotest prop_zipf_sample_in_range;
          QCheck_alcotest.to_alcotest prop_zipf_empirical_rank_order;
        ] );
      ( "churn",
        [
          QCheck_alcotest.to_alcotest prop_churn_conserves_sessions;
          QCheck_alcotest.to_alcotest prop_churn_live_count_sane;
          QCheck_alcotest.to_alcotest prop_churn_ordered_within_horizon;
          QCheck_alcotest.to_alcotest prop_churn_zero_means_immortal;
        ] );
      ( "driver",
        [
          Alcotest.test_case "same seed, same trace" `Quick
            test_driver_deterministic_trace;
          Alcotest.test_case "healthy run" `Quick test_driver_healthy_run;
          Alcotest.test_case "flash dedup O(shards)" `Quick
            test_driver_flash_dedup;
          Alcotest.test_case "pool recycled at teardown" `Quick
            test_driver_pool_recycled;
          Alcotest.test_case "scale.* metrics namespace" `Quick
            test_driver_metrics_namespace;
          Alcotest.test_case "report json shape" `Quick test_report_json_shape;
        ] );
      ( "flyweight",
        [
          Alcotest.test_case "handle-table pool round-trip" `Quick
            test_shared_pool_roundtrip;
        ] );
    ]
