module Splitmix = Pti_util.Splitmix

type address = string

(* The knobs live in [Arq] so the socket transports can reuse the same
   policy record (reconnect backoff mirrors the retry schedule). *)
type reliability = Arq.policy = {
  retransmit_ms : float;
  max_retries : int;
  ack_bytes : int;
}

let default_reliability = Arq.default

type 'a fault_hooks = {
  fh_down : now:float -> src:address -> dst:address -> bool;
  fh_drop : now:float -> src:address -> dst:address -> bool;
  fh_duplicates : now:float -> src:address -> dst:address -> int;
  fh_delay : now:float -> src:address -> dst:address -> float;
  fh_corrupt : now:float -> src:address -> dst:address -> 'a -> 'a option;
}

let no_faults =
  {
    fh_down = (fun ~now:_ ~src:_ ~dst:_ -> false);
    fh_drop = (fun ~now:_ ~src:_ ~dst:_ -> false);
    fh_duplicates = (fun ~now:_ ~src:_ ~dst:_ -> 0);
    fh_delay = (fun ~now:_ ~src:_ ~dst:_ -> 0.);
    fh_corrupt = (fun ~now:_ ~src:_ ~dst:_ _ -> None);
  }

type 'a t = {
  sim : Sim.t;
  stats : Stats.t;
  rng : Splitmix.t;
  default_latency : float;
  default_bandwidth : float;
  drop_rate : float;
  jitter : float;
  reliability : reliability option;
  handlers : (address, net:'a t -> src:address -> 'a -> unit) Hashtbl.t;
  known : (address, unit) Hashtbl.t;  (* every address ever registered *)
  links : (string, float * float) Hashtbl.t;  (* "a|b" -> latency,bw *)
  partitions : (string, unit) Hashtbl.t;
  ledger : Arq.Ledger.t;  (* ids issued, acks seen, deliveries made *)
  mutable faults : 'a fault_hooks option;
  mutable integrity : ('a -> bool) option;
  mutable observer :
    (now:float -> src:address -> dst:address -> category:Stats.category ->
     size:int -> attempt:int -> unit)
    option;
}

let link_key a b = if a <= b then a ^ "|" ^ b else b ^ "|" ^ a

let create ?(default_latency_ms = 1.0) ?(default_bandwidth_bpms = 1000.)
    ?(drop_rate = 0.) ?(jitter_ms = 0.) ?reliability ?(seed = 42L) ?metrics ()
    =
  {
    sim = Sim.create ();
    stats = Stats.create ?metrics ();
    rng = Splitmix.create seed;
    default_latency = default_latency_ms;
    default_bandwidth = default_bandwidth_bpms;
    drop_rate;
    jitter = jitter_ms;
    reliability;
    handlers = Hashtbl.create 16;
    known = Hashtbl.create 16;
    links = Hashtbl.create 16;
    partitions = Hashtbl.create 4;
    ledger = Arq.Ledger.create ();
    faults = None;
    integrity = None;
    observer = None;
  }

let sim t = t.sim
let stats t = t.stats

let add_host t addr ~handler =
  if Hashtbl.mem t.handlers addr then
    invalid_arg (Printf.sprintf "Net.add_host: duplicate address %S" addr);
  Hashtbl.replace t.known addr ();
  Hashtbl.replace t.handlers addr handler

let remove_host t addr = Hashtbl.remove t.handlers addr

let set_link t a b ~latency_ms ~bandwidth_bpms =
  Hashtbl.replace t.links (link_key a b) (latency_ms, bandwidth_bpms)

let on_send t f = t.observer <- Some f

let observe t ~src ~dst ~category ~size ~attempt =
  match t.observer with
  | None -> ()
  | Some f -> f ~now:(Sim.now t.sim) ~src ~dst ~category ~size ~attempt

let partition t a b = Hashtbl.replace t.partitions (link_key a b) ()
let heal t a b = Hashtbl.remove t.partitions (link_key a b)

let set_fault_hooks t f = t.faults <- f
let set_integrity t f = t.integrity <- f

let link_params t a b =
  match Hashtbl.find_opt t.links (link_key a b) with
  | Some p -> p
  | None -> (t.default_latency, t.default_bandwidth)

let partitioned t a b = Hashtbl.mem t.partitions (link_key a b)

(* The link is severed — statically partitioned or inside an injected
   down/flap/crash window. Checked at send time and again on arrival so
   a cut kills messages already in flight. *)
let severed t ~src ~dst =
  partitioned t src dst
  || match t.faults with
     | None -> false
     | Some f -> f.fh_down ~now:(Sim.now t.sim) ~src ~dst

(* One transmission attempt is lost when the link is severed, the
   ambient drop coin says so, or an injected loss window fires. *)
let attempt_lost t ~src ~dst =
  severed t ~src ~dst
  || (t.drop_rate > 0. && Splitmix.float t.rng < t.drop_rate)
  || match t.faults with
     | None -> false
     | Some f ->
         let hit = f.fh_drop ~now:(Sim.now t.sim) ~src ~dst in
         if hit then Stats.record_link t.stats Injected_drop;
         hit

(* Copies of one attempt to transmit: the original plus any injected
   duplicates, which are counted here. *)
let copies t ~src ~dst =
  match t.faults with
  | None -> 1
  | Some f ->
      let extra = max 0 (f.fh_duplicates ~now:(Sim.now t.sim) ~src ~dst) in
      if extra > 0 then Stats.record_links t.stats Injected_duplicate extra;
      1 + extra

let fault_delay t ~src ~dst =
  match t.faults with
  | None -> 0.
  | Some f -> max 0. (f.fh_delay ~now:(Sim.now t.sim) ~src ~dst)

(* Corruption is sampled per transmitted copy, at send time (so the rng
   draw order is deterministic); the mangled payload rides to arrival. *)
let fault_corrupt t ~src ~dst payload =
  match t.faults with
  | None -> payload
  | Some f -> (
      match f.fh_corrupt ~now:(Sim.now t.sim) ~src ~dst payload with
      | None -> payload
      | Some p ->
          Stats.record_link t.stats Corrupted;
          p)

let transfer_delay t ~src ~dst ~size =
  let latency, bandwidth = link_params t src dst in
  let jitter = if t.jitter > 0. then Splitmix.float t.rng *. t.jitter else 0. in
  latency +. (float_of_int size /. bandwidth) +. jitter
  +. fault_delay t ~src ~dst

(* Frame-level integrity (the abstract link checksum): a frame that
   fails the predicate is discarded before the handler sees it. Under
   ARQ the discard also suppresses the ack, so the sender retransmits. *)
let frame_ok t payload =
  match t.integrity with
  | None -> true
  | Some chk ->
      let ok = chk payload in
      if not ok then Stats.record_link t.stats Integrity_drop;
      ok

(* The handler is resolved on arrival, not at send time, so a host
   removed (crashed) mid-flight just loses the frame instead of
   delivering into the void — and a restarted host picks deliveries
   back up. Returns whether the payload was handed over. *)
let deliver t ~src ~dst payload =
  match Hashtbl.find_opt t.handlers dst with
  | None ->
      Stats.record_link t.stats Dropped;
      false
  | Some handler ->
      handler ~net:t ~src payload;
      true

let send t ?info ~src ~dst ~category ~size payload =
  if not (Hashtbl.mem t.known dst) then
    invalid_arg (Printf.sprintf "Net.send: unknown host %S" dst);
  (* The delivery label carries the sender's description of the payload
     (when given) so the model checker can tell concurrently pending
     messages of the same category apart. *)
  let info =
    match info with Some i -> i | None -> Stats.category_name category
  in
  let deliver_label = Sim.Deliver { src; dst; info } in
  match t.reliability with
  | None ->
      (* Each copy (the original plus injected duplicates) is charged,
         observed, lossed and corrupted independently. *)
      for _copy = 1 to copies t ~src ~dst do
        Stats.record t.stats category ~bytes:size;
        observe t ~src ~dst ~category ~size ~attempt:0;
        if attempt_lost t ~src ~dst then Stats.record_link t.stats Dropped
        else begin
          let payload = fault_corrupt t ~src ~dst payload in
          let delay = transfer_delay t ~src ~dst ~size in
          Sim.schedule t.sim ~label:deliver_label ~delay (fun () ->
              (* A partition cut while the message was in flight kills it
                 too — a cable does not care how far the packet got. *)
              if severed t ~src ~dst then Stats.record_link t.stats Dropped
              else if frame_ok t payload then begin
                if deliver t ~src ~dst payload then
                  Stats.record_latency t.stats category ~ms:delay
              end)
        end
      done
  | Some r ->
      let msg_id = Arq.Ledger.fresh_id t.ledger in
      let sent_at = Sim.now t.sim in
      (* On (each) arrival: deliver exactly once, always (re-)ack. A
         partition cut mid-flight loses the attempt (the retransmission
         timer is already armed and will retry). A corrupt frame is
         discarded without an ack, so corruption triggers retransmission
         just like loss. *)
      let on_arrival payload () =
        if severed t ~src ~dst then Stats.record_link t.stats Dropped
        else if frame_ok t payload then begin
          if not (Arq.Ledger.is_delivered t.ledger msg_id) then begin
            if deliver t ~src ~dst payload then begin
              Arq.Ledger.mark_delivered t.ledger msg_id;
              Stats.record_latency t.stats category
                ~ms:(Sim.now t.sim -. sent_at)
            end
          end;
          if Arq.Ledger.is_delivered t.ledger msg_id then begin
            (* The ack travels back and may itself be lost. *)
            Stats.record t.stats Stats.Control ~bytes:r.ack_bytes;
            if attempt_lost t ~src:dst ~dst:src then
              Stats.record_link t.stats Dropped
            else begin
              let ack_delay =
                transfer_delay t ~src:dst ~dst:src ~size:r.ack_bytes
              in
              let ack_label =
                Sim.Deliver
                  { src = dst; dst = src; info = Printf.sprintf "ack#%d" msg_id }
              in
              Sim.schedule t.sim ~label:ack_label ~delay:ack_delay (fun () ->
                  if severed t ~src:dst ~dst:src then
                    Stats.record_link t.stats Dropped
                  else Arq.Ledger.mark_acked t.ledger msg_id)
            end
          end
        end
      in
      let launch () =
        if attempt_lost t ~src ~dst then Stats.record_link t.stats Dropped
        else begin
          let payload = fault_corrupt t ~src ~dst payload in
          let delay = transfer_delay t ~src ~dst ~size in
          Sim.schedule t.sim ~label:deliver_label ~delay (on_arrival payload)
        end
      in
      let rec attempt n =
        for _copy = 1 to copies t ~src ~dst do
          Stats.record t.stats category ~bytes:size;
          observe t ~src ~dst ~category ~size ~attempt:n;
          launch ()
        done;
        if n > 0 then Stats.record_link t.stats Retransmission;
        (* Retransmission timer: fires whether or not this attempt
           arrived; a lost ack also triggers a retry. *)
        let timer_label =
          Sim.Timer
            { owner = src; info = Printf.sprintf "retransmit#%d" msg_id }
        in
        Sim.schedule t.sim ~label:timer_label ~delay:r.retransmit_ms (fun () ->
            if not (Arq.Ledger.is_acked t.ledger msg_id) then
              if n < r.max_retries then attempt (n + 1)
              else if not (Arq.Ledger.is_delivered t.ledger msg_id) then
                Stats.record_lost t.stats category)
      in
      attempt 0

let run t = Sim.run t.sim
let now_ms t = Sim.now t.sim

(* Sorted: Hashtbl iteration order depends on insertion history and
   hashing, which would leak nondeterminism into anything that walks
   the host list (schedule replay must be bit-identical). *)
let hosts t =
  Hashtbl.fold (fun a _ acc -> a :: acc) t.handlers []
  |> List.sort String.compare

let enabled t = Sim.pending_events t.sim
let fire t ~seq = Sim.fire t.sim ~seq
