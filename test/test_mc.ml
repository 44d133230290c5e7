(* Tests for the interleaving model checker: the schedule codec, the
   seeded fan-out regression (found + shrunk), DPOR/hash soundness and
   pruning power, strategy agreement, and the iteration-order
   determinism the explorer's replays depend on. *)

module Net = Pti_net.Net
module Transport = Pti_transport.Transport
module Sim = Pti_net.Sim
module Peer = Pti_core.Peer
module Schedule = Pti_mc.Schedule
module Strategy = Pti_mc.Strategy
module Scenario = Pti_mc.Scenario
module Explore = Pti_mc.Explore

let mk ?(objects = 2) ?(fanout_bug = false) kind () =
  Scenario.make (Scenario.spec ~objects ~fanout_bug kind)

(* ---------------------------------------------------------------- *)
(* Schedule codec                                                     *)
(* ---------------------------------------------------------------- *)

let test_schedule_codec () =
  Alcotest.(check string) "empty encodes as dash" "-" (Schedule.encode []);
  Alcotest.(check string) "dots" "0.2.1" (Schedule.encode [ 0; 2; 1 ]);
  let roundtrip s =
    match Schedule.decode (Schedule.encode s) with
    | Ok s' -> s'
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list int)) "roundtrip empty" [] (roundtrip []);
  Alcotest.(check (list int)) "roundtrip" [ 3; 0; 7 ] (roundtrip [ 3; 0; 7 ]);
  Alcotest.(check (list int)) "dash decodes empty" []
    (match Schedule.decode "-" with Ok s -> s | Error e -> Alcotest.fail e);
  (match Schedule.decode "1.x.2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk component accepted");
  match Schedule.decode "1.-2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative component accepted"

(* ---------------------------------------------------------------- *)
(* Clean scenarios: every interleaving is green                       *)
(* ---------------------------------------------------------------- *)

let exhaust ?(depth = 8) mk =
  Explore.run
    ~config:{ Explore.default_config with depth; budget = 50_000 }
    mk

let test_protocol_green () =
  let r = exhaust (mk Scenario.Protocol) in
  Alcotest.(check bool) "exhausted" true r.Explore.exhausted;
  Alcotest.(check bool) "no violation" true (r.Explore.violation = None);
  Alcotest.(check bool) "explored something" true (r.Explore.schedules >= 1)

let test_wire_green () =
  let r = exhaust (mk Scenario.Wire) in
  Alcotest.(check bool) "exhausted" true r.Explore.exhausted;
  Alcotest.(check bool) "no violation" true (r.Explore.violation = None)

let test_cluster_green () =
  let r =
    exhaust ~depth:3
      (fun () -> Scenario.make (Scenario.spec ~peers:3 ~objects:1 Scenario.Cluster))
  in
  Alcotest.(check bool) "exhausted" true r.Explore.exhausted;
  Alcotest.(check bool) "no violation" true (r.Explore.violation = None)

(* ---------------------------------------------------------------- *)
(* The reintroduced fan-out bug: found within budget, shrunk small    *)
(* ---------------------------------------------------------------- *)

let test_finds_fanout_bug () =
  let mk = mk Scenario.Protocol ~fanout_bug:true in
  let r =
    Explore.run
      ~config:{ Explore.default_config with depth = 8; budget = 500 }
      mk
  in
  match r.Explore.violation with
  | None -> Alcotest.fail "fan-out bug not found within budget"
  | Some (sched, vs) ->
      Alcotest.(check bool) "violations reported" true (vs <> []);
      Alcotest.(check bool) "fetch-economy fired" true
        (List.exists
           (fun v -> v.Pti_fault.Invariant.inv = "fetch-economy")
           vs);
      let minimal = Explore.shrink mk sched in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to <= 6 steps (got %d)" (List.length minimal))
        true
        (List.length minimal <= 6);
      Alcotest.(check bool) "minimal schedule still violates" true
        (Explore.run_schedule mk minimal <> [])

let test_bug_off_means_green () =
  (* The same world with the in-flight guards on must exhaust green —
     the regression really is the [share_inflight] flag. *)
  let r = exhaust (mk Scenario.Protocol ~fanout_bug:false) in
  Alcotest.(check bool) "guarded world green" true
    (r.Explore.violation = None && r.Explore.exhausted)

(* ---------------------------------------------------------------- *)
(* Pruning: sound (same verdict) and >= 5x cheaper                    *)
(* ---------------------------------------------------------------- *)

let test_pruning_sound_and_effective () =
  let mk = mk Scenario.Protocol ~objects:3 in
  let naive =
    Explore.run
      ~config:
        { Explore.default_config with
          depth = 10; budget = 100_000; dpor = false; state_hash = false }
      mk
  in
  let pruned =
    Explore.run
      ~config:{ Explore.default_config with depth = 10; budget = 100_000 }
      mk
  in
  Alcotest.(check bool) "naive exhausted" true naive.Explore.exhausted;
  Alcotest.(check bool) "pruned exhausted" true pruned.Explore.exhausted;
  Alcotest.(check bool) "same verdict" true
    (naive.Explore.violation = None && pruned.Explore.violation = None);
  Alcotest.(check bool)
    (Printf.sprintf "5x fewer schedules (%d naive vs %d pruned)"
       naive.Explore.schedules pruned.Explore.schedules)
    true
    (naive.Explore.schedules >= 5 * pruned.Explore.schedules)

(* E12's schedule counts, pinned exactly under the configuration
   [pti explore] runs with (3 peers, budget 20k, both prunings on): a
   change to [Peer.fingerprint] or to event order moves them even when
   the pruning ratio survives. Each triple is schedules / sleep-pruned /
   hash-pruned. *)
let test_e12_counts_pinned () =
  let counts kind ~objects ~depth =
    let r =
      Explore.run ~config:{ Explore.default_config with depth }
        (mk kind ~objects)
    in
    Alcotest.(check bool) "exhausted" true r.Explore.exhausted;
    (r.Explore.schedules, r.Explore.sleep_pruned, r.Explore.hash_pruned)
  in
  let triple = Alcotest.(triple int int int) in
  Alcotest.check triple "protocol n=3 d=10" (55, 126, 97)
    (counts Scenario.Protocol ~objects:3 ~depth:10);
  Alcotest.check triple "wire n=2 d=8" (41, 45, 20)
    (counts Scenario.Wire ~objects:2 ~depth:8);
  Alcotest.check triple "evolution n=3 d=8" (148, 183, 85)
    (counts Scenario.Evolution ~objects:3 ~depth:8)

let test_explorer_deterministic () =
  let run () =
    let r = exhaust (mk Scenario.Wire) in
    (r.Explore.schedules, r.Explore.sleep_pruned, r.Explore.hash_pruned)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same counts across runs" true (a = b)

(* ---------------------------------------------------------------- *)
(* Strategies                                                         *)
(* ---------------------------------------------------------------- *)

let test_replay_strategy_matches_run_schedule () =
  let mk = mk Scenario.Protocol in
  let sched = [ 1; 0; 1 ] in
  let via_schedule = Explore.run_schedule mk sched in
  let via_strategy = Explore.run_strategy mk (Strategy.replay sched) in
  Alcotest.(check bool) "same verdict" true
    ((via_schedule = []) = (via_strategy = []))

(* Random walks and the chaos harness's FIFO order must agree on the
   invariant verdict for any pinned seed: on the guarded world both are
   green, whatever the interleaving. *)
let prop_random_agrees_with_fifo =
  QCheck.Test.make ~name:"random-strategy verdict agrees with fifo" ~count:30
    QCheck.(map Int64.of_int small_nat)
    (fun seed ->
      let mk = mk Scenario.Protocol in
      let fifo = Explore.run_strategy mk Strategy.fifo in
      let rand = Explore.run_strategy mk (Strategy.random ~seed) in
      (fifo = []) = (rand = []))

(* ---------------------------------------------------------------- *)
(* Iteration-order determinism (what replays rely on)                 *)
(* ---------------------------------------------------------------- *)

let test_hosts_sorted_regardless_of_registration_order () =
  let build names =
    let net = Net.create ~jitter_ms:0. () in
    let transport = Transport.of_net net in
    List.iter (fun n -> ignore (Peer.create ~transport n)) names;
    Net.hosts net
  in
  let a = build [ "zeta"; "alpha"; "mid" ] in
  let b = build [ "mid"; "zeta"; "alpha" ] in
  Alcotest.(check (list string)) "sorted" [ "alpha"; "mid"; "zeta" ] a;
  Alcotest.(check (list string)) "order-independent" a b

let test_fresh_instances_fingerprint_equal () =
  let fp () = (Scenario.make (Scenario.spec Scenario.Wire)).Scenario.i_fingerprint () in
  Alcotest.(check bool) "equal specs, equal fingerprints" true (fp () = fp ())

let test_fingerprint_tracks_state () =
  let inst = mk Scenario.Protocol () in
  let before = inst.Scenario.i_fingerprint () in
  Net.run inst.Scenario.i_net;
  let after = inst.Scenario.i_fingerprint () in
  Alcotest.(check bool) "running the world changes the digest" true
    (before <> after)

(* ---------------------------------------------------------------- *)

let () =
  Alcotest.run "pti_mc"
    [
      ( "schedule",
        [ Alcotest.test_case "codec" `Quick test_schedule_codec ] );
      ( "explore",
        [
          Alcotest.test_case "protocol exhausts green" `Quick
            test_protocol_green;
          Alcotest.test_case "wire exhausts green" `Quick test_wire_green;
          Alcotest.test_case "cluster exhausts green" `Slow
            test_cluster_green;
          Alcotest.test_case "deterministic" `Quick
            test_explorer_deterministic;
        ] );
      ( "regression",
        [
          Alcotest.test_case "finds and shrinks the fan-out bug" `Quick
            test_finds_fanout_bug;
          Alcotest.test_case "guards on means green" `Quick
            test_bug_off_means_green;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "sound and >=5x effective" `Quick
            test_pruning_sound_and_effective;
          Alcotest.test_case "E12 counts pinned" `Quick test_e12_counts_pinned;
        ] );
      ( "strategy",
        [
          Alcotest.test_case "replay matches run_schedule" `Quick
            test_replay_strategy_matches_run_schedule;
          QCheck_alcotest.to_alcotest prop_random_agrees_with_fifo;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "hosts sorted" `Quick
            test_hosts_sorted_regardless_of_registration_order;
          Alcotest.test_case "fingerprints reproducible" `Quick
            test_fresh_instances_fingerprint_equal;
          Alcotest.test_case "fingerprint tracks state" `Quick
            test_fingerprint_tracks_state;
        ] );
    ]
