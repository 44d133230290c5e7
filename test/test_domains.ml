(* Multi-domain stress: the domain-safe surface claimed in HACKING
   ("Sharding and domain safety") under real parallelism — one
   [Metrics.t] shared by N reporting domains (counter conservation, no
   torn histogram snapshots), and one sharded [Peer.shared] flyweight
   block driven by one domain per shard through the full reception
   pipeline. Workload sizes are modest so the suite stays fast; the
   assertions are exact (conservation), not statistical. *)

module Metrics = Pti_obs.Metrics
module Peer = Pti_core.Peer
module Net = Pti_net.Net
module Transport = Pti_transport.Transport
module Workload = Pti_demo.Workload
module Driver = Pti_scale.Driver

let n_domains = 4

(* ------------------------------ metrics ----------------------------- *)

let test_counter_conservation () =
  let m = Metrics.create () in
  let c = Metrics.counter m "stress.count" in
  let per = 50_000 in
  let doms =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            (* Mixed steps so interleavings differ between domains. *)
            for i = 1 to per do
              Metrics.add c (1 + ((i + d) land 1))
            done))
  in
  List.iter Domain.join doms;
  let expected =
    (* Each domain contributes sum over i of (1 + ((i+d) land 1)). *)
    List.init n_domains (fun d ->
        let s = ref 0 in
        for i = 1 to per do
          s := !s + 1 + ((i + d) land 1)
        done;
        !s)
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "no lost increments" expected (Metrics.counter_value c)

let test_histogram_no_tear () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "stress.lat" in
  let per = 20_000 in
  let stop = Atomic.make false in
  (* Writers hold off until the reader has taken its first snapshot, so
     the reader always races at least part of the traffic. *)
  let reader_started = Atomic.make false in
  let writers =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            while not (Atomic.get reader_started) do
              Domain.cpu_relax ()
            done;
            for i = 1 to per do
              Metrics.observe h (float_of_int ((i + d) mod 13))
            done))
  in
  (* A reader snapshots concurrently: every snapshot must be internally
     consistent — bucket counts sum to the count, and a nonempty
     histogram always carries real min/max (a torn read would expose a
     count ahead of the buckets, or nan extrema with count > 0). *)
  let reader =
    Domain.spawn (fun () ->
        let torn = ref 0 in
        let reads = ref 0 in
        while not (Atomic.get stop) do
          (match Metrics.find m "stress.lat" with
          | Some (Metrics.Histogram s) ->
              incr reads;
              let bucket_sum =
                Array.fold_left (fun a (_, c) -> a + c) 0 s.Metrics.h_buckets
              in
              if bucket_sum <> s.Metrics.h_count then incr torn;
              if s.Metrics.h_count > 0 && Float.is_nan s.Metrics.h_min then
                incr torn
          | _ -> incr torn);
          Atomic.set reader_started true;
          Domain.cpu_relax ()
        done;
        (!torn, !reads))
  in
  List.iter Domain.join writers;
  Atomic.set stop true;
  let torn, reads = Domain.join reader in
  Alcotest.(check bool) "reader actually raced the writers" true (reads > 0);
  Alcotest.(check int) "no torn snapshots" 0 torn;
  match Metrics.find m "stress.lat" with
  | Some (Metrics.Histogram s) ->
      Alcotest.(check int) "observation conservation" (n_domains * per)
        s.Metrics.h_count;
      let bucket_sum =
        Array.fold_left (fun a (_, c) -> a + c) 0 s.Metrics.h_buckets
      in
      Alcotest.(check int) "final buckets sum to count" s.Metrics.h_count
        bucket_sum
  | _ -> Alcotest.fail "stress.lat missing"

(* ------------------------ sharded flyweight ------------------------- *)

(* One domain per shard runs a hub peer bound to that shard's slot, on
   its own simulated network with its own publishers; the only
   cross-domain state is the shared block. Every assembly is preloaded
   before the domains spawn, so the run stays on the documented
   domain-safe surface: registry *reads*, plus writes confined to each
   domain's own slot (tdesc cache, verdict cache, proxy wrapping). *)

let families = 4

let pick_shard_addrs sh shards =
  (* One hub address per shard, found by hashing candidates — the test
     must control which slot each domain exercises. *)
  let addr_for = Array.make shards None in
  let picked = ref 0 in
  let j = ref 0 in
  while !picked < shards do
    let a = "hub" ^ string_of_int !j in
    let s = Peer.shard_index sh a in
    (match addr_for.(s) with
    | None ->
        addr_for.(s) <- Some a;
        incr picked
    | Some _ -> ());
    incr j
  done;
  Array.map Option.get addr_for

let test_sharded_block_parallel_hubs () =
  let shards = n_domains in
  let sh = Peer.create_shared ~shards () in
  Alcotest.(check int) "shard count" shards (Peer.shard_count sh);
  (* Preload (single-domain phase): code loading is not domain-safe, so
     it all happens here, before any domain spawns. *)
  let boot_net = Transport.of_net (Net.create ~seed:1L ()) in
  let boot = Peer.create ~transport:boot_net ~shared:sh "boot" in
  Peer.install_assembly boot (Workload.interest_assembly ());
  for f = 0 to families - 1 do
    Peer.install_assembly boot
      (Workload.family ~index:f ~flavor:Workload.Conformant)
  done;
  let addrs = pick_shard_addrs sh shards in
  let sends_per = 200 in
  let doms =
    Array.map
      (fun addr ->
        Domain.spawn (fun () ->
            let transport = Transport.of_net (Net.create ~seed:7L ()) in
            let hub = Peer.create ~transport ~shared:sh addr in
            let delivered = ref 0 in
            Peer.register_interest hub ~interest:Workload.interest_person
              (fun ~from:_ _ -> incr delivered);
            let pubs =
              Array.init families (fun f ->
                  let p =
                    Peer.create ~transport (addr ^ ".pub" ^ string_of_int f)
                  in
                  Peer.publish_assembly p
                    (Workload.family ~index:f ~flavor:Workload.Conformant);
                  p)
            in
            for i = 1 to sends_per do
              let f = i mod families in
              let v =
                Workload.make_person
                  (Peer.registry pubs.(f))
                  ~index:f ~flavor:Workload.Conformant
                  ~name:("n" ^ string_of_int i)
                  ~age:i
              in
              Peer.send_value pubs.(f) ~dst:addr v
            done;
            Peer.run hub;
            !delivered))
      addrs
  in
  let total = Array.fold_left (fun acc d -> acc + Domain.join d) 0 doms in
  Alcotest.(check int) "every send delivered across all domains"
    (shards * sends_per) total;
  (* Each shard saw [families] distinct types: first check computes,
     the rest reuse — aggregated reuse must stay near 1, proving the
     verdict caches were neither corrupted nor thrashed. *)
  Alcotest.(check bool) "aggregate verdict reuse > 0.9" true
    (Peer.shared_reuse_rate sh > 0.9)

(* --------------------------- determinism ---------------------------- *)

let test_trace_hash_parity () =
  (* The sharded block must not perturb the deterministic simulation:
     equal seeds yield bit-equal trace hashes — at shards=1 (the layout
     every historical suite pins) and at shards=4. *)
  let base =
    {
      Driver.default_config with
      Driver.sessions = 500;
      seed = 11L;
      horizon_ms = 20_000.;
    }
  in
  let r1 = Driver.run base in
  let r2 = Driver.run base in
  Alcotest.(check int64) "shards=1 same-seed trace equality"
    r1.Driver.r_trace_hash r2.Driver.r_trace_hash;
  let cfg4 = { base with Driver.shards = 4 } in
  let a = Driver.run cfg4 in
  let b = Driver.run cfg4 in
  Alcotest.(check int64) "shards=4 same-seed trace equality"
    a.Driver.r_trace_hash b.Driver.r_trace_hash;
  Alcotest.(check int) "shards=4 delivers everything" 0 a.Driver.r_undelivered

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "domains"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter conservation" `Quick
            test_counter_conservation;
          Alcotest.test_case "histogram snapshots never tear" `Quick
            test_histogram_no_tear;
        ] );
      ( "flyweight",
        [
          Alcotest.test_case "one domain per shard, full pipeline" `Quick
            test_sharded_block_parallel_hubs;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same-seed trace hashes, shards 1 and 4"
            `Quick test_trace_hash_parity;
        ] );
    ]
