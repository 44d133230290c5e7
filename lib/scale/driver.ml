module Splitmix = Pti_util.Splitmix
module Fnv = Pti_util.Fnv
module Metrics = Pti_obs.Metrics
module Net = Pti_net.Net
module Sim = Pti_net.Sim
module Stats = Pti_net.Stats
module Peer = Pti_core.Peer
module Message = Pti_core.Message
module Checker = Pti_conformance.Checker
module Lru = Pti_obs.Lru
module Workload = Pti_demo.Workload

type config = {
  sessions : int;
  families : int;
  trap_families : int;
  sends_per_session : int;
  zipf_s : float;
  churn : float;
  flash_at_ms : float option;
  upgrade_at_ms : float option;
  seed : int64;
  shards : int;
  horizon_ms : float;
}

let default_config =
  {
    sessions = 10_000;
    families = 16;
    trap_families = 2;
    sends_per_session = 2;
    zipf_s = 1.1;
    churn = 0.5;
    flash_at_ms = None;
    upgrade_at_ms = None;
    seed = 42L;
    shards = 1;
    horizon_ms = 60_000.;
  }

type report = {
  r_config : config;
  r_arrived : int;
  r_departed : int;
  r_sends : int;
  r_deliveries : int;
  r_rejections : int;
  r_undelivered : int;
  r_tdesc_fetches : int;
  r_asm_fetches : int;
  r_flash_sends : int;
  r_flash_tdesc_fetches : int;
  r_flash_asm_fetches : int;
  r_upgraded_version : int;
  r_upgrade_sends : int;
  r_duration_ms : float;
  r_deliveries_per_sec : float;
  r_mean_ms : float;
  r_p50_ms : float;
  r_p99_ms : float;
  r_tdesc_hit_rate : float;
  r_verdict_reuse_rate : float;
  r_pool_recycled : int;
  r_trace_hash : int64;
}

(* A session is the flyweight pattern's client-facing sliver: everything
   type- and code-related lives in the one shared Peer block; what's
   left per session fits in five words. *)
type session = {
  s_id : int;
  s_shard : int;
  mutable s_fam : int;  (* zipf rank, sampled at arrival; -1 before *)
  mutable s_alive : bool;
  mutable s_sent : int;
}

let shard_addr i = "shard" ^ string_of_int i
let pub_addr i = "pub" ^ string_of_int i

(* Sender address -> family index ("pub<k>"). *)
let fam_of_addr a =
  match int_of_string_opt (String.sub a 3 (String.length a - 3)) with
  | Some k -> k
  | None -> invalid_arg ("Driver: unexpected sender " ^ a)

let validate cfg =
  if cfg.sessions <= 0 then invalid_arg "scale: sessions must be positive";
  if cfg.families <= 0 then invalid_arg "scale: families must be positive";
  if cfg.trap_families < 0 || cfg.trap_families >= cfg.families then
    invalid_arg "scale: trap families must leave at least one conformant rank";
  if cfg.sends_per_session < 0 then invalid_arg "scale: sends must be >= 0";
  if cfg.shards <= 0 then invalid_arg "scale: shards must be positive";
  if cfg.horizon_ms <= 0. then invalid_arg "scale: horizon must be positive"

let run ?metrics cfg =
  validate cfg;
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  let net : Message.t Net.t = Net.create ~seed:cfg.seed ~metrics:m () in
  let transport = Pti_transport.Transport.of_net net in
  let sim = Net.sim net in
  let master = Splitmix.create cfg.seed in
  let rng_timeline = Splitmix.split master in
  let rng_family = Splitmix.split master in
  let zipf = Zipf.create ~n:cfg.families ~s:cfg.zipf_s in
  let timeline =
    Churn.build ~sessions:cfg.sessions ~churn:cfg.churn
      ~horizon_ms:cfg.horizon_ms rng_timeline
  in
  (* One flyweight block behind every shard, itself sharded by
     destination hash: sessions aimed at one shard address share that
     shard's descriptions and verdicts, and hot shards cannot evict
     each other's entries. With one shard ([--shards 1], the default)
     this is the historical single-cache block, bit-identical. *)
  let shared = Peer.create_shared ~shards:cfg.shards () in
  let shards =
    Array.init cfg.shards (fun i ->
        Peer.create ~transport ~metrics:m ~shared ~handles:true
          ~event_log_capacity:64 (shard_addr i))
  in
  Peer.install_assembly shards.(0) (Workload.interest_assembly ());
  let flavors =
    Array.init cfg.families (fun i ->
        if i < cfg.families - cfg.trap_families then Workload.Conformant
        else Workload.Trap_missing)
  in
  let pubs =
    Array.init cfg.families (fun i ->
        let p =
          Peer.create ~transport ~metrics:m ~handles:true ~event_log_capacity:64
            (pub_addr i)
        in
        Peer.publish_assembly p (Workload.family ~index:i ~flavor:flavors.(i));
        p)
  in
  (* scale.* instrumentation. *)
  let c_arrived = Metrics.counter m "scale.sessions.arrived" in
  let c_departed = Metrics.counter m "scale.sessions.departed" in
  let c_sends = Metrics.counter m "scale.sends" in
  let c_deliveries = Metrics.counter m "scale.deliveries" in
  let c_flash_sends = Metrics.counter m "scale.flash.sends" in
  let c_flash_tdesc = Metrics.counter m "scale.flash.tdesc_fetches" in
  let c_flash_asm = Metrics.counter m "scale.flash.asm_fetches" in
  let hist = Metrics.histogram m "scale.latency_ms" in
  Metrics.set_gauge (Metrics.gauge m "scale.sessions")
    (float_of_int cfg.sessions);
  Metrics.gauge_fn m "scale.sessions.live" (fun () ->
      float_of_int
        (Metrics.counter_value c_arrived - Metrics.counter_value c_departed));
  Metrics.gauge_fn m "scale.cache.tdesc_hit_rate" (fun () ->
      let c = Peer.shared_tdesc_cache_counters shared in
      let total = c.Lru.hits + c.Lru.misses in
      if total = 0 then 0. else float_of_int c.Lru.hits /. float_of_int total);
  Metrics.gauge_fn m "scale.cache.verdict_reuse_rate" (fun () ->
      Peer.shared_reuse_rate shared);
  Metrics.gauge_fn m "scale.pool.recycled" (fun () ->
      float_of_int (Peer.shared_pool_size shared));
  (* Rolling trace hash: every externally visible workload event, in
     simulation order. Bit-identical across same-seed runs. *)
  let trace = ref (Fnv.hash64 "pti-scale-trace") in
  let tr fmt = Printf.ksprintf (fun s -> trace := Fnv.hash64 ~init:!trace s) fmt in
  (* Flash-crowd fetch attribution by destination address: requests the
     shards aim at the hot publisher are herd fetches. (Fetch totals need
     no observer: the net has no ARQ, so each request is one message in
     its Stats category.) *)
  let hot_addr = ref "" in
  Net.on_send net (fun ~now:_ ~src:_ ~dst ~category ~size:_ ~attempt ->
      if attempt = 0 && String.equal dst !hot_addr then
        match category with
        | Stats.Tdesc_request -> Metrics.incr c_flash_tdesc
        | Stats.Asm_request -> Metrics.incr c_flash_asm
        | _ -> ());
  let sessions =
    Array.init cfg.sessions (fun id ->
        {
          s_id = id;
          s_shard = id mod cfg.shards;
          s_fam = -1;
          s_alive = false;
          s_sent = 0;
        })
  in
  (* Conformant in-flight sends awaiting delivery, FIFO per
     (family, shard): deliveries of one family through one shard cannot
     reorder, so head-of-queue is always the envelope being delivered. *)
  let pending : (int, float Queue.t) Hashtbl.t =
    Hashtbl.create (4 * cfg.families)
  in
  let pending_q fam shard =
    let key = (fam * cfg.shards) + shard in
    match Hashtbl.find_opt pending key with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add pending key q;
        q
  in
  Array.iteri
    (fun si shard ->
      Peer.register_interest shard ~interest:Workload.interest_person
        (fun ~from _value ->
          let fam = fam_of_addr from in
          let q = pending_q fam si in
          match Queue.take_opt q with
          | None -> ()  (* counted as a delivery regardless *)
          | Some t0 ->
              let now = Sim.now sim in
              Metrics.incr c_deliveries;
              Metrics.observe hist (now -. t0);
              tr "V|%d|%d|%.6f" fam si now))
    shards;
  let act info = Sim.Act { owner = "scale"; info } in
  let flavor_conformant = function
    | Workload.Conformant | Workload.Typo _ -> true
    | Workload.Trap_missing | Workload.Trap_arity | Workload.Trap_fieldtype ->
        false
  in
  let upgraded_version = ref 0 in
  let c_upgrade_sends = Metrics.counter m "scale.upgrade.sends" in
  let send_from pub ~fam ~flavor s value_name =
    let v =
      Workload.make_person (Peer.registry pub) ~index:fam ~flavor
        ~name:value_name ~age:(s.s_id land 0x3FFFFFFF)
    in
    Peer.send_value pub ~dst:(shard_addr s.s_shard) v;
    Metrics.incr c_sends;
    if fam = 0 && !upgraded_version > 1 then Metrics.incr c_upgrade_sends;
    if flavor_conformant flavor then
      Queue.push (Sim.now sim) (pending_q fam s.s_shard);
    tr "S|%d|%d|%.6f" fam s.s_shard (Sim.now sim)
  in
  let rec schedule_send s k =
    (* k-th of n sends at arrival + (k+1)/(n+1) of the lifetime: evenly
       inside the session's life, touching neither endpoint. *)
    let n = cfg.sends_per_session in
    let arr = Churn.arrive_ms timeline s.s_id
    and dep = Churn.depart_ms timeline s.s_id in
    let at = arr +. (float_of_int (k + 1) /. float_of_int (n + 1)) *. (dep -. arr) in
    Sim.schedule_at sim ~label:(act "session-send") ~at (fun () ->
        let fam = s.s_fam in
        send_from pubs.(fam) ~fam ~flavor:flavors.(fam) s
          ("p" ^ string_of_int s.s_id);
        s.s_sent <- s.s_sent + 1;
        if k + 1 < n then schedule_send s (k + 1))
  in
  (* The churn timeline replays through a single lazy cursor: one pending
     simulator event regardless of population size. *)
  let rec schedule_cursor i =
    if i < Churn.length timeline then
      Sim.schedule_at sim ~label:(act "timeline") ~at:(Churn.at timeline i)
        (fun () ->
          (match Churn.event timeline i with
          | Churn.Arrive id ->
              let s = sessions.(id) in
              s.s_alive <- true;
              s.s_fam <- Zipf.sample zipf rng_family;
              Metrics.incr c_arrived;
              tr "A|%d|%d" id s.s_fam;
              if cfg.sends_per_session > 0 then schedule_send s 0
          | Churn.Depart id ->
              let s = sessions.(id) in
              s.s_alive <- false;
              Metrics.incr c_departed;
              tr "D|%d" id);
          schedule_cursor (i + 1))
  in
  schedule_cursor 0;
  (* Flash crowd: a brand-new hot type appears and every live session
     receives it in the same instant. The herd of unknown-type envelopes
     hits the shards' in-flight dedup; the wire must see O(shards)
     fetches, not O(live sessions). *)
  (match cfg.flash_at_ms with
  | None -> ()
  | Some at ->
      Sim.schedule_at sim ~label:(act "flash-crowd") ~at (fun () ->
          let idx = cfg.families in
          let pub =
            Peer.create ~transport ~metrics:m ~handles:true ~event_log_capacity:64
              (pub_addr idx)
          in
          Peer.publish_assembly pub
            (Workload.family ~index:idx ~flavor:Workload.Conformant);
          hot_addr := pub_addr idx;
          tr "FLASH|%.6f" (Sim.now sim);
          Array.iter
            (fun s ->
              if s.s_alive then begin
                send_from pub ~fam:idx ~flavor:Workload.Conformant s "hot";
                Metrics.incr c_flash_sends
              end)
            sessions));
  (* Rolling upgrade (E15): CAS-republish the hottest family at schema
     v2 while its traffic keeps flowing. The family first lands on the
     publisher's version chain as v1 (same bytes it already serves —
     idempotent), then v2 compare-and-sets over that head. From this
     instant new sends construct and ship v2 (pinned to its chain
     version and GUID); envelopes already in flight keep decoding
     against v1 by GUID; receivers upgrade on first v2 contact and keep
     conforming — the run must still quiesce with zero undelivered. *)
  (match cfg.upgrade_at_ms with
  | None -> ()
  | Some at ->
      Sim.schedule_at sim ~label:(act "upgrade") ~at (fun () ->
          let fam = 0 in
          let pub = pubs.(fam) in
          let v1 = Workload.family ~index:fam ~flavor:flavors.(fam) in
          match Peer.publish_assembly_cas pub v1 with
          | Error _ -> tr "U|%d|conflict|%.6f" fam (Sim.now sim)
          | Ok ve1 -> (
              let v2 =
                Workload.family_v ~version:2 ~index:fam
                  ~flavor:flavors.(fam)
              in
              match
                Peer.publish_assembly_cas
                  ~expect:ve1.Pti_core.Repository.ve_digest pub v2
              with
              | Error _ -> tr "U|%d|conflict|%.6f" fam (Sim.now sim)
              | Ok ve2 ->
                  upgraded_version := ve2.Pti_core.Repository.ve_version;
                  tr "U|%d|%d|%.6f" fam
                    ve2.Pti_core.Repository.ve_version (Sim.now sim))));
  Net.run net;
  let duration_ms = Sim.now sim in
  (* Teardown: park every shard's learned handle tables in the shared
     pool (sorted shard order — pool contents are part of the trace). *)
  Array.iter Peer.release_handle_tables shards;
  (* Fold each peer's final fingerprint in: the trace hash then attests
     not just the event sequence but the end state it produced. *)
  Array.iter (fun p -> tr "P|%Ld" (Peer.fingerprint p)) shards;
  Array.iter (fun p -> tr "P|%Ld" (Peer.fingerprint p)) pubs;
  let rejections =
    Array.fold_left
      (fun acc shard ->
        match
          Metrics.find m ("peer." ^ Peer.address shard ^ ".rejected")
        with
        | Some (Metrics.Counter n) -> acc + n
        | _ -> acc)
      0 shards
  in
  Metrics.set_gauge (Metrics.gauge m "scale.rejections")
    (float_of_int rejections);
  let undelivered =
    Hashtbl.fold (fun _ q acc -> acc + Queue.length q) pending 0
  in
  let deliveries = Metrics.counter_value c_deliveries in
  let dps =
    if duration_ms <= 0. then 0.
    else float_of_int deliveries /. (duration_ms /. 1000.)
  in
  Metrics.set_gauge (Metrics.gauge m "scale.deliveries_per_sec") dps;
  let hs = Metrics.snapshot_histogram hist in
  let q p = Option.value ~default:0. (Metrics.quantile hs p) in
  let mean_ms =
    if hs.Metrics.h_count = 0 then 0.
    else hs.Metrics.h_sum /. float_of_int hs.Metrics.h_count
  in
  let tc = Peer.shared_tdesc_cache_counters shared in
  let tdesc_total = tc.Lru.hits + tc.Lru.misses in
  {
    r_config = cfg;
    r_arrived = Metrics.counter_value c_arrived;
    r_departed = Metrics.counter_value c_departed;
    r_sends = Metrics.counter_value c_sends;
    r_deliveries = deliveries;
    r_rejections = rejections;
    r_undelivered = undelivered;
    r_tdesc_fetches = Stats.messages (Net.stats net) Stats.Tdesc_request;
    r_asm_fetches = Stats.messages (Net.stats net) Stats.Asm_request;
    r_flash_sends = Metrics.counter_value c_flash_sends;
    r_flash_tdesc_fetches = Metrics.counter_value c_flash_tdesc;
    r_flash_asm_fetches = Metrics.counter_value c_flash_asm;
    r_upgraded_version = !upgraded_version;
    r_upgrade_sends = Metrics.counter_value c_upgrade_sends;
    r_duration_ms = duration_ms;
    r_deliveries_per_sec = dps;
    r_mean_ms = mean_ms;
    r_p50_ms = q 0.5;
    r_p99_ms = q 0.99;
    r_tdesc_hit_rate =
      (if tdesc_total = 0 then 0.
       else float_of_int tc.Lru.hits /. float_of_int tdesc_total);
    r_verdict_reuse_rate = Peer.shared_reuse_rate shared;
    r_pool_recycled = Peer.shared_pool_size shared;
    r_trace_hash = !trace;
  }

let report_to_json ?wall_ms r =
  let b = Buffer.create 512 in
  let f = Metrics.json_float in
  Buffer.add_string b
    (Printf.sprintf
       "{\"sessions\":%d,\"families\":%d,\"trap_families\":%d,\
        \"sends_per_session\":%d,\"zipf_s\":%s,\"churn\":%s,\
        \"flash_at_ms\":%s,\"seed\":%Ld,\"shards\":%d,\"horizon_ms\":%s"
       r.r_config.sessions r.r_config.families r.r_config.trap_families
       r.r_config.sends_per_session (f r.r_config.zipf_s) (f r.r_config.churn)
       (match r.r_config.flash_at_ms with None -> "null" | Some v -> f v)
       r.r_config.seed r.r_config.shards (f r.r_config.horizon_ms));
  Buffer.add_string b
    (Printf.sprintf ",\"upgrade_at_ms\":%s"
       (match r.r_config.upgrade_at_ms with None -> "null" | Some v -> f v));
  Buffer.add_string b
    (Printf.sprintf
       ",\"arrived\":%d,\"departed\":%d,\"sends\":%d,\"deliveries\":%d,\
        \"rejections\":%d,\"undelivered\":%d,\"tdesc_fetches\":%d,\
        \"asm_fetches\":%d,\"flash_sends\":%d,\"flash_tdesc_fetches\":%d,\
        \"flash_asm_fetches\":%d,\"upgraded_version\":%d,\"upgrade_sends\":%d"
       r.r_arrived r.r_departed r.r_sends r.r_deliveries r.r_rejections
       r.r_undelivered r.r_tdesc_fetches r.r_asm_fetches r.r_flash_sends
       r.r_flash_tdesc_fetches r.r_flash_asm_fetches r.r_upgraded_version
       r.r_upgrade_sends);
  Buffer.add_string b
    (Printf.sprintf
       ",\"duration_ms\":%s,\"deliveries_per_sec\":%s,\"latency_mean_ms\":%s,\
        \"latency_p50_ms\":%s,\"latency_p99_ms\":%s,\"tdesc_hit_rate\":%s,\
        \"verdict_reuse_rate\":%s,\"pool_recycled\":%d,\"trace_hash\":\"%Lx\""
       (f r.r_duration_ms) (f r.r_deliveries_per_sec) (f r.r_mean_ms)
       (f r.r_p50_ms) (f r.r_p99_ms) (f r.r_tdesc_hit_rate)
       (f r.r_verdict_reuse_rate) r.r_pool_recycled r.r_trace_hash);
  (match wall_ms with
  | Some w -> Buffer.add_string b (Printf.sprintf ",\"wall_ms\":%s" (f w))
  | None -> ());
  Buffer.add_char b '}';
  Buffer.contents b

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>sessions %d (arrived %d, departed %d) over %.0f ms simulated@,\
     sends %d -> delivered %d, rejected %d, undelivered %d@,\
     sustained %.0f deliveries/sec (sim); latency mean %.2f p50<=%.2f \
     p99<=%.2f ms@,\
     fetches: %d tdesc, %d assembly; tdesc cache hit rate %.4f; verdict \
     reuse %.4f@,\
     flash: %d sends -> %d tdesc + %d assembly fetches@,"
    r.r_config.sessions r.r_arrived r.r_departed r.r_duration_ms r.r_sends
    r.r_deliveries r.r_rejections r.r_undelivered r.r_deliveries_per_sec
    r.r_mean_ms r.r_p50_ms r.r_p99_ms r.r_tdesc_fetches r.r_asm_fetches
    r.r_tdesc_hit_rate r.r_verdict_reuse_rate r.r_flash_sends
    r.r_flash_tdesc_fetches r.r_flash_asm_fetches;
  if r.r_upgraded_version > 0 then
    Format.fprintf ppf "upgrade: head v%d, %d sends at the new schema@,"
      r.r_upgraded_version r.r_upgrade_sends;
  Format.fprintf ppf "pool recycled %d; trace %Lx@]" r.r_pool_recycled
    r.r_trace_hash
