(* Tests for the fault-injection layer and the chaos harness. *)

module Splitmix = Pti_util.Splitmix
module Net = Pti_net.Net
module Sim = Pti_net.Sim
module Stats = Pti_net.Stats
module Fault_plan = Pti_fault.Fault_plan
module Corruptor = Pti_fault.Corruptor
module Invariant = Pti_fault.Invariant
module Chaos = Pti_fault.Chaos
module Message = Pti_core.Message

(* ---------------------------------------------------------------- *)
(* Fault_plan: window and selector semantics                          *)
(* ---------------------------------------------------------------- *)

let w start stop sel act =
  { Fault_plan.w_start = start; w_stop = stop; w_sel = sel; w_act = act }

let test_window_boundaries () =
  let win = w 10. 20. Fault_plan.Any Fault_plan.Down in
  let active now =
    Fault_plan.window_active win ~now ~src:"a" ~dst:"b"
  in
  Alcotest.(check bool) "before" false (active 9.999);
  Alcotest.(check bool) "start is inclusive" true (active 10.);
  Alcotest.(check bool) "inside" true (active 15.);
  Alcotest.(check bool) "stop is exclusive" false (active 20.);
  Alcotest.(check bool) "after" false (active 25.)

let test_selectors () =
  let m sel src dst = Fault_plan.selector_matches sel ~src ~dst in
  Alcotest.(check bool) "any" true (m Fault_plan.Any "x" "y");
  Alcotest.(check bool) "between fwd" true
    (m (Fault_plan.Between ("a", "b")) "a" "b");
  Alcotest.(check bool) "between is unordered" true
    (m (Fault_plan.Between ("a", "b")) "b" "a");
  Alcotest.(check bool) "between other" false
    (m (Fault_plan.Between ("a", "b")) "a" "c");
  Alcotest.(check bool) "from" true (m (Fault_plan.From_host "a") "a" "z");
  Alcotest.(check bool) "from other" false
    (m (Fault_plan.From_host "a") "z" "a");
  Alcotest.(check bool) "to" true (m (Fault_plan.To_host "a") "z" "a");
  Alcotest.(check bool) "touching src" true
    (m (Fault_plan.Touching "a") "a" "z");
  Alcotest.(check bool) "touching dst" true
    (m (Fault_plan.Touching "a") "z" "a");
  Alcotest.(check bool) "touching neither" false
    (m (Fault_plan.Touching "a") "y" "z")

let test_horizon () =
  Alcotest.(check (float 1e-9)) "empty" 0.
    (Fault_plan.horizon { Fault_plan.windows = [] });
  Alcotest.(check (float 1e-9)) "max stop" 90.
    (Fault_plan.horizon
       {
         Fault_plan.windows =
           [
             w 0. 90. Fault_plan.Any Fault_plan.Down;
             w 10. 20. Fault_plan.Any (Fault_plan.Loss 0.5);
           ];
       })

let test_hooks_compile () =
  let rng = Splitmix.create 7L in
  let plan =
    {
      Fault_plan.windows =
        [
          w 10. 20. Fault_plan.Any (Fault_plan.Loss 1.0);
          w 30. 40. (Fault_plan.From_host "a") (Fault_plan.Duplicate 1.0);
          w 50. 60. Fault_plan.Any (Fault_plan.Reorder 25.);
          w 70. 80. Fault_plan.Any Fault_plan.Down;
        ];
    }
  in
  let hooks =
    Fault_plan.hooks plan ~rng ~corrupt:(fun _ _ -> None)
  in
  Alcotest.(check bool) "loss inside" true
    (hooks.Net.fh_drop ~now:15. ~src:"a" ~dst:"b");
  Alcotest.(check bool) "loss outside" false
    (hooks.Net.fh_drop ~now:25. ~src:"a" ~dst:"b");
  Alcotest.(check int) "duplicate on matching link" 1
    (hooks.Net.fh_duplicates ~now:35. ~src:"a" ~dst:"b");
  Alcotest.(check int) "duplicate selector-gated" 0
    (hooks.Net.fh_duplicates ~now:35. ~src:"b" ~dst:"a");
  Alcotest.(check bool) "reorder adds delay" true
    (hooks.Net.fh_delay ~now:55. ~src:"a" ~dst:"b" > 0.);
  Alcotest.(check (float 1e-9)) "no delay outside" 0.
    (hooks.Net.fh_delay ~now:65. ~src:"a" ~dst:"b");
  Alcotest.(check bool) "down inside" true
    (hooks.Net.fh_down ~now:75. ~src:"a" ~dst:"b");
  Alcotest.(check bool) "down outside" false
    (hooks.Net.fh_down ~now:85. ~src:"a" ~dst:"b")

let test_random_plan_profiles () =
  (* Generated plans respect their profile's action vocabulary and stay
     inside the horizon-derived bounds; generation is deterministic. *)
  let hosts = [ "a"; "b"; "c" ] in
  let gen profile seed =
    Fault_plan.random ~profile ~hosts ~horizon_ms:500. (Splitmix.create seed)
  in
  List.iter
    (fun (profile, forbidden) ->
      for seed = 1 to 20 do
        let plan = gen profile (Int64.of_int seed) in
        Alcotest.(check bool) "non-empty" true (plan.Fault_plan.windows <> []);
        List.iter
          (fun win ->
            Alcotest.(check bool) "start >= 0" true
              (win.Fault_plan.w_start >= 0.);
            Alcotest.(check bool) "stop > start" true
              (win.Fault_plan.w_stop > win.Fault_plan.w_start);
            Alcotest.(check bool) "window below ARQ span" true
              (win.Fault_plan.w_stop -. win.Fault_plan.w_start < 480.);
            Alcotest.(check bool) "action allowed for profile" false
              (forbidden win.Fault_plan.w_act))
          plan.Fault_plan.windows
      done;
      let p1 = gen profile 42L and p2 = gen profile 42L in
      Alcotest.(check bool) "deterministic" true (p1 = p2))
    [
      ( Fault_plan.Lossy,
        function Fault_plan.Down | Fault_plan.Corrupt _ -> true | _ -> false );
      (Fault_plan.Flaky, function Fault_plan.Corrupt _ -> true | _ -> false);
      ( Fault_plan.Byzantine_wire,
        function Fault_plan.Down | Fault_plan.Loss _ -> true | _ -> false );
    ]

(* ---------------------------------------------------------------- *)
(* Injected faults drive the network counters                         *)
(* ---------------------------------------------------------------- *)

let burst_world plan =
  let net = Net.create ~seed:5L () in
  let delivered = ref 0 in
  Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ _ -> ());
  Net.add_host net "b" ~handler:(fun ~net:_ ~src:_ () -> incr delivered);
  Net.set_fault_hooks net
    (Some
       (Fault_plan.hooks plan
          ~rng:(Splitmix.create 11L)
          ~corrupt:(fun _ _ -> None)));
  let sim = Net.sim net in
  for i = 0 to 19 do
    Sim.schedule_at sim
      ~at:(float_of_int (i * 10))
      (fun () ->
        Net.send net ~src:"a" ~dst:"b" ~category:Stats.Object_msg ~size:10 ())
  done;
  Net.run net;
  (net, !delivered)

let test_loss_window_counts_drops () =
  let plan =
    { Fault_plan.windows = [ w 50. 150. Fault_plan.Any (Fault_plan.Loss 1.0) ] }
  in
  let net, delivered = burst_world plan in
  (* Sends at 50..140 ms fall inside the window: exactly 10 drops. *)
  Alcotest.(check int) "injected drops" 10
    (Stats.link_count (Net.stats net) Stats.Injected_drop);
  Alcotest.(check int) "delivered the rest" 10 delivered

let test_duplicate_window_counts_copies () =
  let plan =
    {
      Fault_plan.windows =
        [ w 50. 150. Fault_plan.Any (Fault_plan.Duplicate 1.0) ];
    }
  in
  let net, delivered = burst_world plan in
  Alcotest.(check int) "injected duplicates" 10
    (Stats.link_count (Net.stats net) Stats.Injected_duplicate);
  (* Without ARQ there is no dedup: the copies all arrive. *)
  Alcotest.(check int) "double delivery without ARQ" 30 delivered

let test_down_window_heals_itself () =
  let plan =
    { Fault_plan.windows = [ w 50. 150. Fault_plan.Any Fault_plan.Down ] }
  in
  let _net, delivered = burst_world plan in
  Alcotest.(check int) "only windowed sends die" 10 delivered

(* ---------------------------------------------------------------- *)
(* Corruptor                                                          *)
(* ---------------------------------------------------------------- *)

let test_flip_byte_changes_string () =
  let rng = Splitmix.create 3L in
  for _ = 1 to 100 do
    let s = "hello, wire" in
    Alcotest.(check bool) "differs" true (Corruptor.flip_byte rng s <> s)
  done;
  Alcotest.(check string) "empty unchanged" "" (Corruptor.flip_byte rng "")

let test_corrupt_message_targets_payloads () =
  let rng = Splitmix.create 3L in
  let some m = Corruptor.corrupt_message rng m <> None in
  Alcotest.(check bool) "obj msg" true
    (some (Message.Obj_msg { envelope = "<e/>"; tdescs = []; assemblies = [] }));
  Alcotest.(check bool) "tdesc reply with body" true
    (some
       (Message.Tdesc_reply { type_name = "t"; desc = Some "<d/>"; token = 1 }));
  Alcotest.(check bool) "negative tdesc reply untouched" false
    (some (Message.Tdesc_reply { type_name = "t"; desc = None; token = 1 }));
  Alcotest.(check bool) "gossip body" true
    (some (Message.Gossip { kind = "digest"; body = "token\t1\n" }));
  Alcotest.(check bool) "requests untouched" false
    (some (Message.Tdesc_request { type_name = "t"; token = 1; binary_ok = false; version = 0 }))

(* ---------------------------------------------------------------- *)
(* Invariant checks are data-in, violations-out                       *)
(* ---------------------------------------------------------------- *)

let test_invariant_units () =
  Alcotest.(check int) "conservation holds" 0
    (List.length
       (Invariant.conservation ~sent:5 ~delivered:3 ~rejected:1 ~failed:0
          ~net_lost:1));
  Alcotest.(check int) "conservation broken" 1
    (List.length
       (Invariant.conservation ~sent:5 ~delivered:3 ~rejected:1 ~failed:0
          ~net_lost:0));
  Alcotest.(check int) "exactly once holds" 0
    (List.length (Invariant.exactly_once ~delivered_keys:[ "a"; "b" ]));
  Alcotest.(check int) "duplicate apply caught" 1
    (List.length (Invariant.exactly_once ~delivered_keys:[ "a"; "b"; "a" ]));
  Alcotest.(check int) "mangled value caught" 1
    (List.length
       (Invariant.no_mangle
          ~expected:[ ("k", ("ada", 36)) ]
          ~got:[ ("k", ("adb", 36)) ]));
  Alcotest.(check int) "trap delivery caught" 1
    (List.length
       (Invariant.trap_never_delivered ~trap_keys:[ "t" ]
          ~delivered_keys:[ "t" ]));
  Alcotest.(check int) "verdict flip caught" 1
    (List.length
       (Invariant.verdict_stability [ ("x", "conformant", "not-conformant") ]));
  Alcotest.(check int) "suspect member caught" 1
    (List.length
       (Invariant.membership_converged [ ("n0", [ ("n1", "suspect") ]) ]));
  Alcotest.(check int) "count divergence caught" 1
    (List.length (Invariant.metrics_match_trace [ ("obj", 4, 5) ]))

(* ---------------------------------------------------------------- *)
(* Shrinking                                                          *)
(* ---------------------------------------------------------------- *)

let test_shrink_candidates_are_smaller () =
  let plan =
    {
      Fault_plan.windows =
        List.init 5 (fun i ->
            w (float_of_int (i * 10))
              (float_of_int ((i * 10) + 5))
              Fault_plan.Any Fault_plan.Down);
    }
  in
  let cands = Fault_plan.shrink_candidates plan in
  Alcotest.(check bool) "has candidates" true (cands <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool) "strictly smaller" true
        (List.length c.Fault_plan.windows < 5))
    cands;
  Alcotest.(check int) "singleton has none" 0
    (List.length
       (Fault_plan.shrink_candidates
          { Fault_plan.windows = [ w 0. 1. Fault_plan.Any Fault_plan.Down ] }))

let test_shrink_finds_minimal_failing_plan () =
  (* Six windows, one culprit: greedy ddmin must isolate it, and every
     intermediate plan it accepts must still fail. *)
  let culprit = w 30. 40. Fault_plan.Any (Fault_plan.Corrupt 0.9) in
  let noise i =
    w (float_of_int (i * 10))
      (float_of_int ((i * 10) + 5))
      Fault_plan.Any (Fault_plan.Loss 0.1)
  in
  let plan =
    { Fault_plan.windows = List.init 5 noise @ [ culprit ] }
  in
  let checked = ref 0 in
  let fails p =
    incr checked;
    List.exists
      (fun x -> match x.Fault_plan.w_act with
        | Fault_plan.Corrupt _ -> true
        | _ -> false)
      p.Fault_plan.windows
  in
  let minimal = Fault_plan.shrink ~fails plan in
  Alcotest.(check bool) "shrinker ran" true (!checked > 0);
  Alcotest.(check int) "down to one window" 1
    (List.length minimal.Fault_plan.windows);
  Alcotest.(check bool) "it is the culprit" true
    (List.hd minimal.Fault_plan.windows = culprit);
  Alcotest.(check bool) "still failing" true (fails minimal)

(* ---------------------------------------------------------------- *)
(* Chaos integration                                                  *)
(* ---------------------------------------------------------------- *)

let no_violations what (r : Chaos.run_result) =
  Alcotest.(check int)
    (what ^ ": no invariant violations")
    0
    (List.length r.Chaos.r_violations)

(* A saturating corruption window over the whole run, against the full
   cluster (ARQ + frame integrity + digests + mirrors): corruption is
   detected — never absorbed — and every conformant object still lands. *)
let test_corruption_detected_and_recovered () =
  let horizon = 2000. in
  let plan =
    {
      Fault_plan.windows =
        [ w 0. horizon Fault_plan.Any (Fault_plan.Corrupt 0.5) ];
    }
  in
  let config =
    {
      Chaos.c_profile = Fault_plan.Byzantine_wire;
      c_cluster = true;
      c_objects = 8;
      c_frame_integrity = true;
      c_wire = false;
      c_upgrade = false;
    }
  in
  let r = Chaos.run_one ~plan config ~seed:1234L in
  no_violations "byzantine cluster" r;
  Alcotest.(check bool) "corruption actually hit the wire" true
    (r.Chaos.r_corrupted_frames > 0);
  Alcotest.(check bool) "corruption detected somewhere" true
    (r.Chaos.r_corrupt_rejects > 0 || r.Chaos.r_integrity_drops > 0);
  (* 6 of 8 objects are conformant; the other 2 must be rejected as
     traps, not lost to corruption. *)
  Alcotest.(check int) "all conformant objects delivered" 6
    r.Chaos.r_delivered;
  Alcotest.(check int) "traps rejected" 2 r.Chaos.r_rejected

(* Without the frame filter the corrupt envelope reaches the peer, whose
   own digest check classifies it — detection without recovery. *)
let test_corruption_detected_at_peer_without_frame_filter () =
  let plan =
    {
      Fault_plan.windows =
        [ w 0. 2000. Fault_plan.Any (Fault_plan.Corrupt 0.5) ];
    }
  in
  let config =
    {
      Chaos.c_profile = Fault_plan.Byzantine_wire;
      c_cluster = false;
      c_objects = 8;
      c_frame_integrity = false;
      c_wire = false;
      c_upgrade = false;
    }
  in
  let r = Chaos.run_one ~plan config ~seed:99L in
  no_violations "no frame filter" r;
  Alcotest.(check bool) "peer-level rejections recorded" true
    (r.Chaos.r_corrupt_rejects > 0);
  Alcotest.(check bool) "corrupt objects are failed, not mangled" true
    (r.Chaos.r_failed > 0);
  Alcotest.(check bool) "some delivery still happened" true
    (r.Chaos.r_delivered > 0)

let test_chaos_run_deterministic () =
  let config = Chaos.default_config in
  let r1 = Chaos.run_one config ~seed:777L in
  let r2 = Chaos.run_one config ~seed:777L in
  Alcotest.(check bool) "same seed, same world" true
    (r1.Chaos.r_delivered = r2.Chaos.r_delivered
    && r1.Chaos.r_retransmissions = r2.Chaos.r_retransmissions
    && r1.Chaos.r_plan = r2.Chaos.r_plan
    && r1.Chaos.r_corrupted_frames = r2.Chaos.r_corrupted_frames)

(* The 200-schedule smoke the CI also runs: every invariant green. *)
let test_chaos_smoke_200 () =
  let s =
    Chaos.run_many
      { Chaos.default_config with c_profile = Fault_plan.Lossy }
      ~runs:200 ~seed:42L
  in
  Alcotest.(check int) "no failing schedules" 0 (List.length s.Chaos.s_failures);
  Alcotest.(check int) "all conformant objects delivered" (200 * 6)
    s.Chaos.s_delivered

let test_chaos_cluster_profiles_smoke () =
  List.iter
    (fun profile ->
      let s =
        Chaos.run_many
          {
            Chaos.c_profile = profile;
            c_cluster = true;
            c_objects = 8;
            c_frame_integrity = true;
            c_wire = false;
            c_upgrade = false;
          }
          ~runs:25 ~seed:7L
      in
      Alcotest.(check int)
        (Fault_plan.profile_name profile ^ ": no failing schedules")
        0
        (List.length s.Chaos.s_failures))
    [ Fault_plan.Lossy; Fault_plan.Flaky; Fault_plan.Byzantine_wire ]

(* Wire-efficiency features under faults: handles + batching + binary
   tdescs on, receiver handle tables dropped mid-run. The run must
   degrade through renegotiation (NAK -> re-bind -> reprocess), and the
   usual invariants — conservation, no mangling, trap rejection — must
   hold exactly as in classic mode. *)
let test_chaos_wire_renegotiates () =
  let config = { Chaos.default_config with c_wire = true } in
  let r = Chaos.run_one config ~seed:777L in
  no_violations "wire mode" r;
  Alcotest.(check bool) "table drop forced renegotiation" true
    (r.Chaos.r_renegotiations > 0);
  Alcotest.(check int) "all conformant objects delivered" 6
    r.Chaos.r_delivered

let test_chaos_wire_profiles_smoke () =
  List.iter
    (fun (cluster, profile) ->
      let s =
        Chaos.run_many
          {
            Chaos.c_profile = profile;
            c_cluster = cluster;
            c_objects = 8;
            c_frame_integrity = true;
            c_wire = true;
            c_upgrade = false;
          }
          ~runs:25 ~seed:21L
      in
      Alcotest.(check int)
        (Fault_plan.profile_name profile ^ ": no failing wire schedules")
        0
        (List.length s.Chaos.s_failures))
    [ (false, Fault_plan.Lossy); (true, Fault_plan.Byzantine_wire) ]

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "window boundaries" `Quick test_window_boundaries;
          Alcotest.test_case "selectors" `Quick test_selectors;
          Alcotest.test_case "horizon" `Quick test_horizon;
          Alcotest.test_case "hooks compile" `Quick test_hooks_compile;
          Alcotest.test_case "profile generation" `Quick
            test_random_plan_profiles;
        ] );
      ( "injection",
        [
          Alcotest.test_case "loss window" `Quick test_loss_window_counts_drops;
          Alcotest.test_case "duplicate window" `Quick
            test_duplicate_window_counts_copies;
          Alcotest.test_case "down window self-heals" `Quick
            test_down_window_heals_itself;
        ] );
      ( "corruptor",
        [
          Alcotest.test_case "flip changes bytes" `Quick
            test_flip_byte_changes_string;
          Alcotest.test_case "targets payloads only" `Quick
            test_corrupt_message_targets_payloads;
        ] );
      ( "invariants",
        [ Alcotest.test_case "unit checks" `Quick test_invariant_units ] );
      ( "shrink",
        [
          Alcotest.test_case "candidates smaller" `Quick
            test_shrink_candidates_are_smaller;
          Alcotest.test_case "isolates the culprit" `Quick
            test_shrink_finds_minimal_failing_plan;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "corruption detected and recovered" `Quick
            test_corruption_detected_and_recovered;
          Alcotest.test_case "peer-level detection sans frame filter" `Quick
            test_corruption_detected_at_peer_without_frame_filter;
          Alcotest.test_case "deterministic" `Quick test_chaos_run_deterministic;
          Alcotest.test_case "200-schedule smoke" `Slow test_chaos_smoke_200;
          Alcotest.test_case "cluster profiles smoke" `Slow
            test_chaos_cluster_profiles_smoke;
          Alcotest.test_case "wire mode renegotiates" `Quick
            test_chaos_wire_renegotiates;
          Alcotest.test_case "wire profiles smoke" `Slow
            test_chaos_wire_profiles_smoke;
        ] );
    ]
