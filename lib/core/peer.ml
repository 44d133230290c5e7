open Pti_cts
module Net = Pti_net.Net
module Transport = Pti_transport.Transport
module Td = Pti_typedesc.Type_description
module Checker = Pti_conformance.Checker
module Config = Pti_conformance.Config
module Mapping = Pti_conformance.Mapping
module Proxy = Pti_proxy.Dynamic_proxy
module Envelope = Pti_serial.Envelope
module Assembly_xml = Pti_serial.Assembly_xml
module Ht = Pti_serial.Handle_table
module Bf = Pti_serial.Batch_frame
module S = Pti_util.Strutil
module Lru = Pti_obs.Lru
module Ring = Pti_obs.Ring
module Metrics = Pti_obs.Metrics

let log_src = Logs.Src.create "pti.peer" ~doc:"Type-interoperability peer"

module Log = (val Logs.src_log log_src : Logs.LOG)

type mode = Optimistic | Eager

type event =
  | Delivered of { interest : string; from : string; value : Value.value }
  | Rejected of { type_name : string; from : string; reason : string }
  | Decode_failed of { from : string; reason : string }
  | Load_failed of { assembly : string; reason : string }
  | Corrupt_rejected of { from : string; what : string; reason : string }

let pp_event ppf = function
  | Delivered { interest; from; value } ->
      Format.fprintf ppf "delivered %s from %s: %s" interest from
        (Value.type_name value)
  | Rejected { type_name; from; reason } ->
      Format.fprintf ppf "rejected %s from %s: %s" type_name from reason
  | Decode_failed { from; reason } ->
      Format.fprintf ppf "decode failed (from %s): %s" from reason
  | Load_failed { assembly; reason } ->
      Format.fprintf ppf "load of %s failed: %s" assembly reason
  | Corrupt_rejected { from; what; reason } ->
      Format.fprintf ppf "corrupt %s rejected (from %s): %s" what from reason

type remote_ref = { rr_host : string; rr_id : int; rr_class : string }

(* Per-outcome event counters surfaced through the metrics registry. *)
type event_counters = {
  mc_delivered : Metrics.counter;
  mc_rejected : Metrics.counter;
  mc_decode_failed : Metrics.counter;
  mc_load_failed : Metrics.counter;
  mc_fetch_attempts : Metrics.counter;
  mc_fetch_retries : Metrics.counter;
  mc_fetch_failovers : Metrics.counter;
  mc_corrupt_rejects : Metrics.counter;
}

(* Wire-efficiency accounting: negotiated type handles and envelope
   batching (see HACKING, "Wire efficiency"). *)
type wire_counters = {
  mc_handle_hits : Metrics.counter;  (* refs shipped instead of entries *)
  mc_handle_misses : Metrics.counter;  (* first-use binds shipped *)
  mc_renegotiations : Metrics.counter;  (* NAKs sent for unknown handles *)
  mc_batch_messages : Metrics.counter;
  mc_batch_envelopes : Metrics.counter;
  mc_batch_bytes_saved : Metrics.counter;
}

(* An envelope whose handle refs could not be resolved waits here while
   the sender re-binds them; it is reprocessed on [Handle_bind], and
   dropped (with a [Decode_failed]) if the renegotiation times out or
   the retry budget runs dry. Correctness never depends on the handle
   optimisation: the full-entry path is always available. *)
type parked = {
  pk_envelope : string;
  pk_tdescs : string list;
  pk_assemblies : string list;
  pk_retries : int;  (* remaining renegotiation attempts *)
  mutable pk_cancel : unit -> unit;
}

(* Same-destination object sends coalescing within one simulator
   instant; flushed by a delay-0 event (which the simulator orders after
   all sends already queued at this instant) or as soon as the byte
   budget fills. *)
type batch_buf = {
  mutable bb_parts : Bf.part list;  (* reversed *)
  mutable bb_standalone : int;  (* what the parts would cost as Obj_msg *)
  mutable bb_bytes : int;  (* accumulated part payload bytes *)
  mutable bb_scheduled : bool;
}

(* The flyweight: every piece of peer state that is intrinsically about
   *types and code*, not about one endpoint's conversations. A classic
   peer owns a private block (bit-identical to the historical layout);
   the scale driver allocates ONE block and threads it through millions
   of lightweight sessions, so the registry, the served-assembly
   repository, the tdesc cache, the checker's verdict cache and the
   receiver handle-table pool are paid for once per process, not once
   per session. Everything conversational (interests, pending
   continuations, event log, batches) stays per-[t]. *)
(* One shard of the flyweight block: the caches whose eviction and
   contention behavior are per-destination. [create_shared ~shards:k]
   builds [k] of these; a peer binds at construction to the slot
   selected by FNV-1a of its own (destination) address, so every
   session talking *to* one destination shares that destination's
   verdicts and descriptions, while hot destinations in different
   shards cannot evict each other's entries — and domains serving
   disjoint shards never touch the same mutable cache. With the
   default [shards = 1] every peer binds slot 0 and the block behaves
   bit-identically to the historical unsharded layout. *)
type slot = {
  sl_tdesc_cache : Td.t Lru.Str.t;
  (* Descriptions of loaded classes, built once per shard (see
     [describe]); next to the cache of fetched ones. *)
  sl_descs : (Meta.class_def * Td.t option) option array;
  sl_checker : Checker.t;
  sl_known_paths : string Lru.Str.t;  (* assembly name -> path *)
  sl_px : Proxy.context;
  (* Newest version cached under a [name@vN] tdesc-cache key, by
     lowercased qualified type name: the checker's resolver falls back to
     it when the bare name has no binding, so nested (e.g. recursive)
     type references inside a version-pinned envelope still resolve. *)
  sl_desc_versions : (string, int) Hashtbl.t;
  (* Recycled receiver handle tables: a departing session's per-link
     tables are cleared and parked here; the next arriving session draws
     from the pool instead of allocating. FIFO, so recycling order is a
     pure function of departure order (determinism audit). *)
  sl_ht_pool : Ht.receiver Queue.t;
}

type shared = {
  (* Registry, repository and the loaded-version ledger stay
     block-global: they hold the code itself (one GUID -> one class,
     whatever shard asked), are read-mostly in steady state, and code
     loading is documented as a single-domain operation (see HACKING,
     "Sharding and domain safety"). *)
  sh_reg : Registry.t;
  sh_repo : Repository.t;
  (* Highest assembly version loaded as live code, by lowercased assembly
     name: decides whether a fetched revision upgrades the live bindings
     or is shadow-registered (GUID-only) for in-flight old envelopes. *)
  sh_loaded_versions : (string, int) Hashtbl.t;
  sh_ht_capacity : int;
  sh_slots : slot array;  (* length = shard count, always >= 1 *)
}

type t = {
  addr : string;
  tr : Message.t Transport.t;
  (* Filled right after construction (the endpoint handler closes over
     [t]); always [Some] once [create] returns. *)
  mutable ep : Message.t Transport.endpoint option;
  sh : shared;
  (* The shard this address hashes to, bound once at construction: the
     hot path never recomputes the hash. *)
  sl : slot;
  peer_mode : mode;
  codec : Envelope.codec;
  mutable interests :
    (int * string * (from:string -> Value.value -> unit)) list;
  mutable next_interest : int;
  mutable default_sink : (from:string -> Value.value -> unit) option;
  exported : (int, Value.value) Hashtbl.t;
  mutable next_export : int;
  mutable next_token : int;
  (* Continuation, timeout-cancel thunk, remaining corrupt-reply
     re-requests for this pending subprotocol exchange. Description
     requests also remember the chain version they were pinned to (0 =
     latest) so a corrupt-reply re-request re-asks for the same
     revision. *)
  tdesc_conts :
    (int, (Td.t option -> unit) * (unit -> unit) * (int * int)) Hashtbl.t;
  asm_conts :
    (int, (Assembly.t option -> unit) * (unit -> unit) * int) Hashtbl.t;
  invoke_conts : (int, (Value.value, string) result -> unit) Hashtbl.t;
  (* In-flight fetch dedup: concurrent requests for the same type
     description (keyed host|name) or assembly (keyed by name) join the
     outstanding exchange instead of issuing their own. Without this a
     batch of same-type envelopes arriving in one tick fans out into one
     probe + one code download *per envelope*. *)
  tdesc_inflight : (string, (Td.t option -> unit) list ref) Hashtbl.t;
  asm_inflight :
    (string, ((string * Assembly.t) option -> unit) list ref) Hashtbl.t;
  (* Regression flag: [false] reintroduces the fan-out bug the guards
     above fixed, for the model checker's known-bug test. *)
  share_inflight : bool;
  event_log : event Ring.t;
  metrics : Metrics.t;
  evt_ctrs : event_counters;
  request_timeout_ms : float;
  fetch_retries : int;  (* extra attempts per download path *)
  fetch_backoff_ms : float;  (* base of the exponential retry backoff *)
  (* Cluster hooks: ranked alternative download paths for an assembly,
     and the recipient of Gossip messages. The core peer stays ignorant
     of membership and replication — pti_cluster installs both. *)
  mutable mirror_provider :
    (assembly:string -> advertised:string -> string list) option;
  mutable gossip_handler : src:string -> kind:string -> body:string -> unit;
  (* Wire-efficiency layer. Sending handle-encoded (binary PTIE)
     envelopes and batches is opt-in per peer; receiving either is
     unconditional, so a link between a negotiating sender and a classic
     receiver still works. Without handles a peer sends classic XML
     envelopes. *)
  handles : bool;
  batch_bytes : int option;
  tdesc_binary : bool;
  h_send : (string, Ht.sender) Hashtbl.t;  (* dst -> assigned handles *)
  h_recv : (string, Ht.receiver) Hashtbl.t;  (* src -> learned bindings *)
  parked : (string, parked list ref) Hashtbl.t;  (* src -> waiting *)
  batches : (string, batch_buf) Hashtbl.t;  (* dst -> open batch *)
  mutable piggyback_provider : dst:string -> (string * string) list;
  wire_ctrs : wire_counters;
}

let address t = t.addr
let registry t = t.sh.sh_reg
let checker t = t.sl.sl_checker
let proxy_context t = t.sl.sl_px
let mode t = t.peer_mode
let transport t = t.tr
let now_ms t = Transport.now_ms t.tr

let endpoint t =
  match t.ep with Some e -> e | None -> assert false

let schedule_timer t ~info ~delay_ms f =
  Transport.timer t.tr ~owner:t.addr ~info ~delay_ms f

let metrics t = t.metrics
let events t = Ring.to_list t.event_log
let clear_events t = Ring.clear t.event_log
let events_dropped t = Ring.dropped t.event_log
let tdesc_cache_size t = Lru.Str.length t.sl.sl_tdesc_cache
let tdesc_cache_counters t = Lru.Str.counters t.sl.sl_tdesc_cache
let exported_count t = Hashtbl.length t.exported
let repository t = t.sh.sh_repo
let fetch_attempts t = Metrics.counter_value t.evt_ctrs.mc_fetch_attempts
let fetch_retries t = Metrics.counter_value t.evt_ctrs.mc_fetch_retries
let fetch_failovers t = Metrics.counter_value t.evt_ctrs.mc_fetch_failovers
let corrupt_rejects t = Metrics.counter_value t.evt_ctrs.mc_corrupt_rejects
let handle_hits t = Metrics.counter_value t.wire_ctrs.mc_handle_hits
let handle_misses t = Metrics.counter_value t.wire_ctrs.mc_handle_misses
let renegotiations t = Metrics.counter_value t.wire_ctrs.mc_renegotiations
let batch_messages t = Metrics.counter_value t.wire_ctrs.mc_batch_messages
let batch_envelopes t = Metrics.counter_value t.wire_ctrs.mc_batch_envelopes

let batch_bytes_saved t =
  Metrics.counter_value t.wire_ctrs.mc_batch_bytes_saved

let drop_handle_tables t =
  (* Receiver side only: forgetting learned bindings exercises the NAK /
     re-bind path (the chaos harness uses this), while the sender keeps
     its assignments so re-binds reuse the same numbers. *)
  Hashtbl.iter (fun _ r -> Ht.clear_receiver r) t.h_recv

let release_handle_tables t =
  (* Session teardown: cleared receiver tables go back to the shared
     pool for the next arrival. Returned in sorted-correspondent order —
     pool contents must be a pure function of departure order, never of
     hash-bucket layout (same-seed runs hash-compare traces). *)
  Hashtbl.fold (fun src _ acc -> src :: acc) t.h_recv []
  |> List.sort String.compare
  |> List.iter (fun src ->
         match Hashtbl.find_opt t.h_recv src with
         | Some r ->
             Ht.clear_receiver r;
             Queue.add r t.sl.sl_ht_pool
         | None -> ());
  Hashtbl.reset t.h_recv;
  Hashtbl.reset t.h_send

let run t = Transport.run t.tr

let log_event t e =
  Log.debug (fun m -> m "[%s] %a" t.addr pp_event e);
  Ring.push t.event_log e;
  Metrics.incr
    (match e with
    | Delivered _ -> t.evt_ctrs.mc_delivered
    | Rejected _ -> t.evt_ctrs.mc_rejected
    | Decode_failed _ -> t.evt_ctrs.mc_decode_failed
    | Load_failed _ -> t.evt_ctrs.mc_load_failed
    | Corrupt_rejected _ -> t.evt_ctrs.mc_corrupt_rejects)

let lc = S.lowercase

(* Cache and dedup key of a chain-pinned entry: [name@vN], or the bare
   name for version 0 (unpinned). *)
let versioned_key name version =
  if version > 0 then Printf.sprintf "%s@v%d" name version else name

(* A loaded class's description, built on first use and kept in the
   shard. The memo is a direct-mapped table indexed by GUID, so its size
   is fixed however many classes churn through the registry: a class
   whose slot another took is simply described again. An entry answers
   only for the very definition it was built from (physical equality),
   so an upgrade or a shadow registration can never be served a stale
   description. The stored option is returned as is: a repeated lookup
   allocates nothing. *)
let descs_size = 256

let describe descs cd =
  let i = Pti_util.Guid.hash cd.Meta.td_guid land (descs_size - 1) in
  match Array.unsafe_get descs i with
  | Some (built_from, d) when built_from == cd -> d
  | _ ->
      let d = Some (Td.of_class cd) in
      descs.(i) <- Some (cd, d);
      d

(* Description lookup: local code first, then the description cache. *)
let local_desc t name =
  match Registry.find t.sh.sh_reg name with
  | Some cd -> describe t.sl.sl_descs cd
  | None -> Lru.Str.find t.sl.sl_tdesc_cache (lc name)

(* The exact revision an envelope entry pinned: loaded code by GUID, else
   the version-pinned cache slot (chain versions > 0 only). *)
let pinned_desc t name ~version guid =
  match Registry.find_by_guid t.sh.sh_reg guid with
  | Some cd -> describe t.sl.sl_descs cd
  | None when version > 0 ->
      Lru.Str.find t.sl.sl_tdesc_cache (versioned_key (lc name) version)
  | None -> None

let cache_desc ?(version = 0) t d =
  if version > 0 then begin
    (* Version-pinned entry, keyed [name@vN]: it never shadows (or
       overturns) an existing bare-name binding. But when the bare name
       has NO binding, the checker's resolver serves the newest
       versioned entry instead — so becoming that newest entry is new
       knowledge, and verdicts that failed on the missing name must be
       re-derived (the GUID witness keeps any verdict that already
       resolved this very description). *)
    let nm = lc (Td.qualified_name d) in
    let key = versioned_key nm version in
    if not (Lru.Str.mem t.sl.sl_tdesc_cache key) then begin
      Lru.Str.put t.sl.sl_tdesc_cache key d;
      let newest =
        match Hashtbl.find_opt t.sl.sl_desc_versions nm with
        | Some v -> version > v
        | None -> true
      in
      if newest then begin
        Hashtbl.replace t.sl.sl_desc_versions nm version;
        if not (Lru.Str.mem t.sl.sl_tdesc_cache nm) then
          ignore
            (Checker.note_new_type ~witness:d.Td.ty_guid t.sl.sl_checker
               (Td.qualified_name d))
      end
    end
  end
  else begin
    let key = lc (Td.qualified_name d) in
    if not (Lru.Str.mem t.sl.sl_tdesc_cache key) then begin
      Lru.Str.put t.sl.sl_tdesc_cache key d;
      (* New knowledge can overturn verdicts that failed on this missing
         type — and only those. The GUID witness additionally keeps any
         verdict that already resolved this very description. *)
      ignore
        (Checker.note_new_type ~witness:d.Td.ty_guid t.sl.sl_checker
           (Td.qualified_name d))
    end
  end

(* Qualified names a description refers to — what else we may need. *)
let refs_of_desc (d : Td.t) =
  let tys = ref [] in
  let add ty = tys := Ty.named_roots ty @ !tys in
  Option.iter (fun s -> tys := s :: !tys) d.Td.ty_super;
  tys := d.Td.ty_interfaces @ !tys;
  List.iter (fun f -> add f.Td.fd_ty) d.Td.ty_fields;
  List.iter
    (fun (m : Td.method_desc) ->
      add m.Td.md_return;
      List.iter (fun p -> add p.Td.pd_ty) m.Td.md_params)
    d.Td.ty_methods;
  List.iter
    (fun (c : Td.ctor_desc) ->
      List.iter (fun p -> add p.Td.pd_ty) c.Td.cd_params)
    d.Td.ty_ctors;
  List.sort_uniq S.compare_ci !tys

let fresh_token t =
  let k = t.next_token in
  t.next_token <- k + 1;
  k

(* On sim fabrics the label names the delivery event. [Message.describe]
   includes subprotocol tokens, so concurrently pending deliveries get
   distinguishable labels — the model checker's sleep sets identify
   events by label. Boxed once here rather than by every [~describe]. *)
let message_label = Some Message.describe

let send t ~dst msg =
  Log.debug (fun m -> m "[%s] -> %s: %s" t.addr dst (Message.describe msg));
  Transport.send (endpoint t) ?describe:message_label ~dst
    ~category:(Message.category msg) ~size:(Message.size msg) msg

(* ---------------------------------------------------------------- *)
(* Asynchronous fetch plumbing                                        *)
(* ---------------------------------------------------------------- *)

(* Subprotocol requests carry a timeout: if the reply never arrives (lost
   on an unreliable lossy link, or the peer is gone), the continuation
   fires with [None] so the reception pipeline degrades to a rejection
   instead of stalling forever. *)
let default_request_timeout_ms = 10_000.

(* Park [k] under [token] until its reply (see [take_cont]) or timeout. *)
let await_reply t conts token k extra =
  let cancel =
    Transport.timer_cancellable t.tr ~owner:t.addr
      ~info:(Printf.sprintf "request-timeout#%d" token)
      ~delay_ms:t.request_timeout_ms
      (fun () ->
        match Hashtbl.find_opt conts token with
        | None -> ()
        | Some (k, _, _) ->
            Hashtbl.remove conts token;
            k None)
  in
  Hashtbl.replace conts token (k, cancel, extra)

(* [retries] is the corrupt-reply budget: a reply that arrives but fails
   to parse is treated as wire damage and re-requested that many times
   before the continuation degrades to [None]. Fresh requests start from
   the peer's [fetch_retries] knob. *)
let request_tdesc ?retries ?(version = 0) t ~from name k =
  let token = fresh_token t in
  let retries = Option.value ~default:t.fetch_retries retries in
  await_reply t t.tdesc_conts token k (retries, version);
  send t ~dst:from
    (Message.Tdesc_request
       { type_name = name; token; binary_ok = t.tdesc_binary; version })

(* In-flight dedup: concurrent fetches under one [key] share one
   exchange — later callers just enqueue their continuation on the
   outstanding one ([None]). The first caller gets [Some k'] and must
   start the exchange with [k'], which fans the reply out to every
   waiter. The entry stays until the (possibly retried) exchange
   resolves, so re-requests keep absorbing new callers too.
   [share_inflight:false] turns the guard off: every caller starts its
   own exchange. *)
let join_inflight t inflight key k =
  if not t.share_inflight then Some k
  else
    match Hashtbl.find_opt inflight key with
    | Some waiters ->
        waiters := k :: !waiters;
        None
    | None ->
        let waiters = ref [ k ] in
        Hashtbl.add inflight key waiters;
        Some
          (fun resp ->
            Hashtbl.remove inflight key;
            List.iter (fun k -> k resp) (List.rev !waiters))

(* [request_tdesc] deduped per (host, name, pinned version). *)
let request_tdesc_shared ?(version = 0) t ~from name k =
  let key = from ^ "|" ^ versioned_key (lc name) version in
  match join_inflight t t.tdesc_inflight key k with
  | Some k -> request_tdesc ~version t ~from name k
  | None -> ()

let request_assembly t ~host ~path k =
  let token = fresh_token t in
  await_reply t t.asm_conts token k 0;
  send t ~dst:host (Message.Asm_request { path; token })

(* Fetch the transitive closure of descriptions for [names] from [from],
   then continue with [k]. Names already resolvable locally are free.
   [pins] (keyed by lowercased name) pins a name to the chain version and
   GUID its envelope entry declared: a pinned name only resolves locally
   to that exact description, and is otherwise fetched version-pinned, so
   a concurrent upgrade can never substitute a different revision. *)
let ensure_descs ?(pins = []) t ~from names k =
  let outstanding = ref 0 in
  let visited = Hashtbl.create 16 in
  let finished = ref false in
  let pin_of key = List.assoc_opt key pins in
  let local key name =
    match pin_of key with
    | Some (v, guid) when v > 0 -> (
        match pinned_desc t name ~version:v guid with
        | Some _ as d -> d
        | None -> (
            (* A bare cached description still satisfies the pin when it
               is the pinned revision. *)
            match local_desc t name with
            | Some d as found when Pti_util.Guid.equal d.Td.ty_guid guid ->
                found
            | _ -> None))
    | _ -> local_desc t name
  in
  let rec need name =
    let key = lc name in
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.add visited key ();
      match local key name with
      | Some d -> List.iter need (refs_of_desc d)
      | None ->
          incr outstanding;
          let version = match pin_of key with Some (v, _) -> v | None -> 0 in
          request_tdesc_shared ~version t ~from name (fun resp ->
              (match resp with
              | Some d ->
                  cache_desc ~version t d;
                  List.iter need (refs_of_desc d)
              | None -> ());
              decr outstanding;
              check_done ())
    end
  and check_done () =
    if !outstanding = 0 && not !finished then begin
      finished := true;
      k ()
    end
  in
  List.iter need names;
  check_done ()

(* Candidate download paths for an assembly: the cluster's mirror
   provider when installed (it ranks by liveness and observed latency,
   and positions the advertised path per policy), else just the
   advertised path. Order-preserving dedup; the advertised path is
   always a candidate of last resort. *)
let fetch_candidates t ~asm_name ~advertised =
  let raw =
    match t.mirror_provider with
    | None -> [ advertised ]
    | Some provider ->
        let ranked = provider ~assembly:asm_name ~advertised in
        if List.exists (String.equal advertised) ranked then ranked
        else ranked @ [ advertised ]
  in
  let seen = Hashtbl.create 4 in
  List.filter
    (fun p ->
      if Hashtbl.mem seen p then false
      else begin
        Hashtbl.add seen p ();
        true
      end)
    raw

(* One assembly through the failover pipeline: try each candidate path
   in turn, retrying a candidate [fetch_retries] times under exponential
   backoff before failing over to the next. [k] gets the source path
   alongside the assembly so the caller can remember where the bytes
   actually came from. *)
let fetch_assembly_uncached t ~asm_name ~advertised k =
  let candidates = fetch_candidates t ~asm_name ~advertised in
      let rec try_candidate ~first = function
        | [] -> k None
        | path :: rest ->
            if not first then Metrics.incr t.evt_ctrs.mc_fetch_failovers;
            let host =
              match Repository.parse_path path with
              | Some (host, _) -> host
              | None -> (* malformed path: the sender-side convention *) t.addr
            in
            let rec attempt n =
              Metrics.incr t.evt_ctrs.mc_fetch_attempts;
              request_assembly t ~host ~path (function
                | Some asm ->
                    Lru.Str.put t.sl.sl_known_paths (lc asm_name) path;
                    k (Some (path, asm))
                | None ->
                    if n < t.fetch_retries then begin
                      Metrics.incr t.evt_ctrs.mc_fetch_retries;
                      let delay =
                        t.fetch_backoff_ms *. (2. ** float_of_int n)
                      in
                      Transport.timer t.tr ~owner:t.addr
                        ~info:("fetch-backoff " ^ asm_name) ~delay_ms:delay
                        (fun () -> attempt (n + 1))
                    end
                    else try_candidate ~first:false rest)
            in
            attempt 0
      in
      try_candidate ~first:true candidates

(* The failover pipeline behind an in-flight guard: a local mirror copy
   short-circuits the network entirely, and concurrent fetches of the
   same assembly share one download. A versioned advertised path pins
   both the local short-circuit and the in-flight dedup to that chain
   revision — a concurrent fetch of a different revision is a different
   download. *)
let fetch_assembly_failover t ~asm_name ~advertised k =
  let pin =
    match Repository.parse_versioned_path advertised with
    | Some (_, _, Some v) -> Some v
    | _ -> None
  in
  let local =
    match pin with
    | Some v -> (
        match
          Repository.resolve t.sh.sh_repo ~pin:(Repository.Version v) asm_name
        with
        | Some ve -> Some (ve.Repository.ve_path, ve.Repository.ve_assembly)
        | None -> None)
    | None -> Repository.find_by_name t.sh.sh_repo asm_name
  in
  match local with
  | Some (path, asm) -> k (Some (path, asm))
  | None -> (
      let key = versioned_key (lc asm_name) (Option.value pin ~default:0) in
      match join_inflight t t.asm_inflight key k with
      | Some k -> fetch_assembly_uncached t ~asm_name ~advertised k
      | None -> ())

(* Promote an assembly to the live revision: names rebind, old GUIDs stay
   reachable, and the checker drops exactly the verdicts bound to the
   superseded definitions (same-witness verdicts survive). *)
let upgrade_assembly_local t asm =
  Assembly.upgrade t.sh.sh_reg asm;
  List.iter
    (fun cd ->
      ignore
        (Checker.note_new_type ~witness:cd.Meta.td_guid t.sl.sl_checker
           (Meta.qualified_name cd)))
    asm.Assembly.asm_classes

(* Version-aware code loading. A first load (or a same-version reload)
   registers classically; a strictly newer revision of an assembly we
   already run upgrades the live bindings; a strictly older one is
   shadow-registered — its GUIDs resolve for in-flight old envelopes,
   but the names keep pointing at the newer live revision. A failure is
   logged as [Load_failed] (under [name] when the registry rejects a
   class outright) and its reason returned. *)
let load_assembly t ~name asm =
  let key = lc asm.Assembly.asm_name in
  let v = asm.Assembly.asm_version in
  let failed assembly reason =
    log_event t (Load_failed { assembly; reason });
    Some reason
  in
  match
    match Hashtbl.find_opt t.sh.sh_loaded_versions key with
    | None ->
        Assembly.load t.sh.sh_reg asm;
        Hashtbl.replace t.sh.sh_loaded_versions key v
    | Some prev when v > prev ->
        upgrade_assembly_local t asm;
        Hashtbl.replace t.sh.sh_loaded_versions key v
    | Some prev when v < prev -> Assembly.shadow t.sh.sh_reg asm
    | Some _ -> Assembly.load t.sh.sh_reg asm
  with
  | () -> None
  | exception Registry.Duplicate ty ->
      failed asm.Assembly.asm_name
        (Printf.sprintf "type %s collides with an existing definition" ty)
  | exception Invalid_argument reason -> failed name reason

(* Download and load every assembly needed by the envelope's type entries
   whose GUIDs are not yet loaded. [k] receives [Ok ()] or a reason. *)
let ensure_assemblies t (env : Envelope.t) k =
  (* Remember advertised download paths. *)
  List.iter
    (fun (e : Envelope.type_entry) ->
      Lru.Str.put t.sl.sl_known_paths (lc e.Envelope.te_assembly)
        e.Envelope.te_download_path)
    env.Envelope.env_types;
  let needed =
    env.Envelope.env_types
    |> List.filter (fun (e : Envelope.type_entry) ->
           not (Registry.mem_guid t.sh.sh_reg e.Envelope.te_guid))
    |> List.map (fun (e : Envelope.type_entry) ->
           (e.Envelope.te_assembly, e.Envelope.te_download_path))
    |> List.sort_uniq compare
  in
  let outstanding = ref 0 in
  let failed = ref None in
  let finished = ref false in
  let check_done () =
    if !outstanding = 0 && not !finished then begin
      finished := true;
      match !failed with None -> k (Ok ()) | Some reason -> k (Error reason)
    end
  in
  let fetch (asm_name, path) =
    incr outstanding;
    fetch_assembly_failover t ~asm_name ~advertised:path (fun resp ->
        let failure =
          match resp with
          | Some (_, asm) -> load_assembly t ~name:asm_name asm
          | None ->
              let reason =
                Printf.sprintf "assembly %s not available at %s" asm_name path
              in
              log_event t (Load_failed { assembly = asm_name; reason });
              Some reason
        in
        if !failed = None then failed := failure;
        decr outstanding;
        check_done ())
  in
  List.iter fetch needed;
  check_done ()

(* ---------------------------------------------------------------- *)
(* Pass-by-value reception (Figure 1)                                 *)
(* ---------------------------------------------------------------- *)

let envelope_error e = Format.asprintf "%a" Envelope.pp_error e

let decode_failed t ~from e =
  log_event t (Decode_failed { from; reason = envelope_error e })

(* Step: decode the payload against the loaded code. A failure is logged
   here — wire damage the payload digest caught as [Corrupt_rejected],
   anything else as [Decode_failed] — and the result handed back. *)
let decode_payload t ~from env =
  let r = Envelope.decode_payload t.sh.sh_reg env in
  (match r with
  | Ok _ -> ()
  | Error (Envelope.Corrupt reason) ->
      log_event t (Corrupt_rejected { from; what = "payload"; reason })
  | Error e -> decode_failed t ~from e);
  r

let deliver_primitive t ~from value =
  match t.default_sink with
  | Some sink -> sink ~from value
  | None -> log_event t (Delivered { interest = "(sink)"; from; value })

(* Which interests accept the root type, and with what mapping? *)
let matching_interests t (root : Td.t) =
  List.filter_map
    (fun (_, interest, cb) ->
      match local_desc t interest with
      | None -> None
      | Some interest_d -> (
          match Checker.check t.sl.sl_checker ~actual:root ~interest:interest_d with
          | Checker.Conformant m -> Some (interest, cb, m)
          | Checker.Not_conformant _ -> None))
    t.interests

let failure_message = function
  | [] -> "not conformant"
  | f :: _ -> f.Checker.message

let first_failure t (root : Td.t) =
  (* For the rejection log: report the first interest's failure detail. *)
  match t.interests with
  | [] -> "no registered interest"
  | (_, interest, _) :: _ -> (
      match local_desc t interest with
      | None -> Printf.sprintf "interest %s not loaded locally" interest
      | Some interest_d -> (
          match Checker.check t.sl.sl_checker ~actual:root ~interest:interest_d with
          | Checker.Conformant _ -> "conformant (race)"
          | Checker.Not_conformant fs -> failure_message fs))

(* Root description pinned to the sender's actual revision: the envelope
   entry names the GUID the sender serialized against, so conformance is
   judged against that description — not whatever the bare name happens
   to resolve to after a local upgrade raced the delivery. *)
let env_desc t (env : Envelope.t) name =
  match
    List.find_opt
      (fun (e : Envelope.type_entry) -> S.equal_ci e.Envelope.te_name name)
      env.Envelope.env_types
  with
  | None -> local_desc t name
  | Some e -> (
      match
        pinned_desc t name ~version:e.Envelope.te_version e.Envelope.te_guid
      with
      | Some _ as d -> d
      | None -> local_desc t name)

(* Step: judge the envelope's root type against every interest. Returns
   the conformant ones, or [] after logging why none is: [missing] logs
   a root description that does not resolve at all, anything else is a
   [Rejected] naming the first interest's failure. *)
let conform_root t ~from env root_name ~missing =
  match env_desc t env root_name with
  | None ->
      missing t ~from root_name;
      []
  | Some root -> (
      match matching_interests t root with
      | [] ->
          log_event t
            (Rejected
               { type_name = root_name; from; reason = first_failure t root });
          []
      | matches -> matches)

let desc_unavailable t ~from type_name =
  log_event t
    (Rejected { type_name; from; reason = "type description unavailable" })

let root_vanished t ~from _ =
  log_event t
    (Decode_failed { from; reason = "root type vanished after decode" })

let decode_and_deliver t ~from (env : Envelope.t) root_name =
  match decode_payload t ~from env with
  | Error _ -> ()
  | Ok value ->
      List.iter
        (fun (interest, cb, m) ->
          let delivered =
            if m.Mapping.identity then value
            else Proxy.wrap t.sl.sl_px ~interest ~mapping:m value
          in
          log_event t (Delivered { interest; from; value = delivered });
          cb ~from delivered)
        (conform_root t ~from env root_name ~missing:root_vanished)

(* Per-link handle tables, created lazily per correspondent. *)
let sender_table t dst =
  match Hashtbl.find_opt t.h_send dst with
  | Some s -> s
  | None ->
      let s = Ht.create_sender () in
      Hashtbl.add t.h_send dst s;
      s

let recv_table t src =
  match Hashtbl.find_opt t.h_recv src with
  | Some r -> r
  | None ->
      (* Pool first: all tables in a shared block have the same capacity,
         so a recycled one is interchangeable with a fresh one. *)
      let r =
        match Queue.take_opt t.sl.sl_ht_pool with
        | Some r -> r
        | None -> Ht.create_receiver ~capacity:t.sh.sh_ht_capacity
      in
      Hashtbl.add t.h_recv src r;
      r

(* Hold an envelope with unresolved handle refs until the sender's
   [Handle_bind] arrives; a timed-out renegotiation surfaces as a
   [Decode_failed], never a silent drop. *)
let park_envelope t ~from ~budget msg_env tdescs assemblies =
  let lst =
    match Hashtbl.find_opt t.parked from with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add t.parked from r;
        r
  in
  let pk =
    {
      pk_envelope = msg_env;
      pk_tdescs = tdescs;
      pk_assemblies = assemblies;
      pk_retries = budget - 1;
      pk_cancel = (fun () -> ());
    }
  in
  pk.pk_cancel <-
    Transport.timer_cancellable t.tr ~owner:t.addr
      ~info:("renego-timeout " ^ from) ~delay_ms:t.request_timeout_ms
      (fun () ->
        if List.memq pk !lst then begin
          lst := List.filter (fun p -> p != pk) !lst;
          log_event t
            (Decode_failed { from; reason = "handle renegotiation timed out" })
        end);
  lst := pk :: !lst

let process_envelope t ~from (env : Envelope.t) tdescs assemblies =
  (* Eager extras: load whatever was shipped inline. *)
  List.iter
    (fun s ->
      match Td.of_wire_string s with Ok d -> cache_desc t d | Error _ -> ())
    tdescs;
  List.iter
    (fun s ->
      match Assembly_xml.of_string s with
      | Ok asm -> ignore (load_assembly t ~name:asm.Assembly.asm_name asm)
      | Error reason -> log_event t (Load_failed { assembly = "?"; reason }))
    assemblies;
  match env.Envelope.env_types with
  | [] -> (
      (* No objects in the graph: nothing to conform, just decode. *)
      match decode_payload t ~from env with
      | Ok v -> deliver_primitive t ~from v
      | Error _ -> ())
  | root_entry :: _ ->
      let root_name = root_entry.Envelope.te_name in
      if
        List.for_all
          (fun (e : Envelope.type_entry) ->
            Registry.mem_guid t.sh.sh_reg e.Envelope.te_guid)
          env.Envelope.env_types
      then
        (* Optimistic fast path: everything already loaded. *)
        decode_and_deliver t ~from env root_name
      else
        (* Step 2-3: pull type information, check the rules. Entries
           stamped with a chain version pin the fetch to that exact
           revision. *)
        let all_names =
          List.map
            (fun (e : Envelope.type_entry) -> e.Envelope.te_name)
            env.Envelope.env_types
        in
        let pins =
          List.filter_map
            (fun (e : Envelope.type_entry) ->
              if e.Envelope.te_version > 0 then
                Some
                  ( lc e.Envelope.te_name,
                    (e.Envelope.te_version, e.Envelope.te_guid) )
              else None)
            env.Envelope.env_types
        in
        ensure_descs ~pins t ~from all_names (fun () ->
            match conform_root t ~from env root_name ~missing:desc_unavailable with
            | [] -> ()
            | _ ->
                (* Step 4-5: conformant — download the code. *)
                ensure_assemblies t env (function
                  | Ok () -> decode_and_deliver t ~from env root_name
                  | Error reason -> log_event t (Decode_failed { from; reason })))

(* Parse an incoming object envelope — classic or handle-encoded — and
   run it through the reception pipeline. Unknown handles are NAKed and
   the envelope parked; [renego_budget] bounds how many rounds of
   renegotiation one envelope may trigger. *)
let handle_envelope ?renego_budget t ~from (msg_env : string) tdescs
    assemblies =
  let budget =
    match renego_budget with Some b -> b | None -> t.fetch_retries + 1
  in
  let rtab = recv_table t from in
  match Envelope.of_string_h ~resolve:(fun h -> Ht.resolve rtab h) msg_env with
  | Error (Envelope.Corrupt reason) ->
      (* The digest caught wire damage before any value was built. There
         is no resend protocol for object messages at this layer —
         frame-level integrity + ARQ (Net.set_integrity) is what turns
         this into a retransmission. *)
      log_event t (Corrupt_rejected { from; what = "envelope"; reason })
  | Error (Envelope.Unknown_handles handles) ->
      if budget <= 0 then
        log_event t
          (Decode_failed
             { from; reason = "handle renegotiation budget exhausted" })
      else begin
        (* Wire-intact but the link table has drifted (cold start,
           eviction, corruption-induced drop): ask the sender to re-bind
           and hold the envelope. Degraded, never mis-typed. *)
        park_envelope t ~from ~budget msg_env tdescs assemblies;
        Metrics.incr t.wire_ctrs.mc_renegotiations;
        send t ~dst:from (Message.Handle_nak { handles })
      end
  | Error e -> decode_failed t ~from e
  | Ok (env, bindings) ->
      List.iter (fun (h, e) -> Ht.install rtab h e) bindings;
      process_envelope t ~from env tdescs assemblies

(* ---------------------------------------------------------------- *)
(* Remote invocation (pass-by-reference)                              *)
(* ---------------------------------------------------------------- *)

let download_path t ~assembly =
  match Lru.Str.find t.sl.sl_known_paths (lc assembly) with
  | Some p -> p
  | None -> Repository.path_for ~host:t.addr ~assembly

(* Chain version stamped into outgoing type entries: the published head
   for assemblies on this repository's version chain, 0 (absent on the
   wire) for everything else — so pre-evolution traffic is unchanged. *)
let assembly_version t ~assembly =
  match Repository.resolve t.sh.sh_repo assembly with
  | Some ve -> ve.Repository.ve_version
  | None -> 0

let make_envelope t v =
  Envelope.make t.sh.sh_reg ~codec:t.codec
    ~version_of:(fun ~assembly -> assembly_version t ~assembly)
    ~download_path:(fun ~assembly -> download_path t ~assembly)
    v

(* Receive a value envelope outside the interest pipeline (invocation
   arguments and results): fetch missing assemblies, decode, continue. *)
let receive_value_envelope t ~from:_ env k =
  ensure_assemblies t env (function
    | Error reason -> k (Error reason)
    | Ok () -> (
        match Envelope.decode_payload t.sh.sh_reg env with
        | Ok v -> k (Ok v)
        | Error e -> k (Error (envelope_error e))))

let handle_invoke t ~from ~target ~meth ~args_xml ~token =
  let reply result error =
    send t ~dst:from (Message.Invoke_reply { token; result; error })
  in
  match Hashtbl.find_opt t.exported target with
  | None -> reply None (Some (Printf.sprintf "no exported object %d" target))
  | Some recv -> (
      match Envelope.of_string args_xml with
      | Error e -> reply None (Some (envelope_error e))
      | Ok env ->
          receive_value_envelope t ~from env (function
            | Error reason -> reply None (Some reason)
            | Ok (Value.Varr a) -> (
                let args = Array.to_list a.Value.items in
                match Eval.call t.sh.sh_reg recv meth args with
                | result ->
                    reply
                      (Some (Envelope.to_string (make_envelope t result)))
                      None
                | exception Eval.Runtime_error msg -> reply None (Some msg))
            | Ok _ -> reply None (Some "malformed argument payload")))

(* ---------------------------------------------------------------- *)
(* Network handler                                                    *)
(* ---------------------------------------------------------------- *)

(* Claim a pending exchange's continuation on its reply: the entry goes
   and its timeout is cancelled, so a late duplicate finds nothing. *)
let take_cont conts token =
  let pending = Hashtbl.find_opt conts token in
  Option.iter (fun (_, cancel, _) -> Hashtbl.remove conts token; cancel ()) pending;
  pending

let handle t ~src msg =
  Log.debug (fun m -> m "[%s] <- %s: %s" t.addr src (Message.describe msg));
  match msg with
  | Message.Obj_msg { envelope; tdescs; assemblies } ->
      handle_envelope t ~from:src envelope tdescs assemblies
  | Message.Obj_batch { frame } -> (
      match Bf.decode frame with
      | Error reason ->
          log_event t (Corrupt_rejected { from = src; what = "batch"; reason })
      | Ok { Bf.parts; piggyback } ->
          List.iter
            (fun (p : Bf.part) ->
              handle_envelope t ~from:src p.Bf.p_envelope p.Bf.p_tdescs
                p.Bf.p_assemblies)
            parts;
          List.iter
            (fun (kind, body) -> t.gossip_handler ~src ~kind ~body)
            piggyback)
  | Message.Handle_nak { handles } -> (
      (* The other end lost bindings we assigned on this link: re-send
         them. Unknown handles (e.g. after our own restart) are simply
         omitted — the receiver's park times out and the next fresh send
         re-binds from scratch. *)
      let stab = sender_table t src in
      let binds =
        List.filter_map
          (fun h -> Option.map (fun e -> (h, e)) (Ht.entry_for stab h))
          handles
      in
      match binds with
      | [] -> ()
      | _ ->
          send t ~dst:src
            (Message.Handle_bind { frame = Ht.encode_bindings binds }))
  | Message.Handle_bind { frame } -> (
      match Ht.decode_bindings frame with
      | Error reason ->
          log_event t
            (Corrupt_rejected { from = src; what = "handle-bind"; reason })
      | Ok bindings -> (
          let rtab = recv_table t src in
          List.iter (fun (h, e) -> Ht.install rtab h e) bindings;
          match Hashtbl.find_opt t.parked src with
          | None -> ()
          | Some lst ->
              let waiting = List.rev !lst in
              lst := [];
              List.iter
                (fun pk ->
                  pk.pk_cancel ();
                  handle_envelope ~renego_budget:pk.pk_retries t ~from:src
                    pk.pk_envelope pk.pk_tdescs pk.pk_assemblies)
                waiting))
  | Message.Tdesc_request { type_name; token; binary_ok; version } ->
      (* A pinned request is answered from the repository's version
         chains — the description exactly as published at that revision —
         falling back to the version-pinned cache, then best-effort to
         the bare resolution (a peer with no chain knowledge answers as
         before; the requester's GUID pin still vets what comes back). *)
      let pinned () =
        let rec scan = function
          | [] -> None
          | (asm_name, _) :: rest -> (
              match
                Repository.resolve t.sh.sh_repo
                  ~pin:(Repository.Version version) asm_name
              with
              | Some ve -> (
                  match
                    Assembly.find_class ve.Repository.ve_assembly type_name
                  with
                  | Some cd -> Some (Td.of_class cd)
                  | None -> scan rest)
              | None -> scan rest)
        in
        match scan (Repository.chain_digests t.sh.sh_repo) with
        | Some _ as d -> d
        | None -> (
            match
              Lru.Str.find t.sl.sl_tdesc_cache
                (versioned_key (lc type_name) version)
            with
            | Some _ as d -> d
            | None -> local_desc t type_name)
      in
      let resolved =
        if version > 0 then pinned () else local_desc t type_name
      in
      let desc =
        Option.map
          (fun d ->
            if binary_ok then Td.to_binary_string d else Td.to_xml_string d)
          resolved
      in
      send t ~dst:src (Message.Tdesc_reply { type_name; desc; token })
  | Message.Tdesc_reply { type_name; desc; token } -> (
      match take_cont t.tdesc_conts token with
      | None -> ()
      | Some (k, _, (retries, version)) -> (
          match desc with
          | None -> k None
          | Some s -> (
              match Td.of_wire_string s with
              | Ok d -> k (Some d)
              | Error reason ->
                  (* The sender had the description but what arrived does
                     not parse: wire corruption. Re-ask within budget. *)
                  log_event t
                    (Corrupt_rejected { from = src; what = "tdesc"; reason });
                  if retries > 0 then
                    (* Back off before re-asking so the re-request can
                       outlive a corruption burst. *)
                    Transport.timer t.tr ~owner:t.addr
                      ~info:("tdesc-reask " ^ type_name)
                      ~delay_ms:t.fetch_backoff_ms
                      (fun () ->
                        request_tdesc ~retries:(retries - 1) ~version t
                          ~from:src type_name k)
                  else k None)))
  | Message.Asm_request { path; token } ->
      let assembly =
        Option.map Assembly_xml.to_string (Repository.find t.sh.sh_repo ~path)
      in
      send t ~dst:src (Message.Asm_reply { path; assembly; token })
  | Message.Asm_reply { assembly; token; _ } -> (
      match take_cont t.asm_conts token with
      | None -> ()
      | Some (k, _, _) -> (
          match assembly with
          | None -> k None
          | Some s -> (
              match Assembly_xml.of_string s with
              | Ok a -> k (Some a)
              | Error reason ->
                  (* Corrupt assembly bytes: reject and let the failover
                     pipeline retry this path / move to the next mirror. *)
                  log_event t
                    (Corrupt_rejected
                       { from = src; what = "assembly"; reason });
                  k None)))
  | Message.Invoke_request { target; meth; args; token } ->
      handle_invoke t ~from:src ~target ~meth ~args_xml:args ~token
  | Message.Invoke_reply { token; result; error } -> (
      match Hashtbl.find_opt t.invoke_conts token with
      | None -> ()
      | Some k -> (
          Hashtbl.remove t.invoke_conts token;
          match error with
          | Some e -> k (Error e)
          | None -> (
              match result with
              | None -> k (Error "empty reply")
              | Some xml -> (
                  match Envelope.of_string xml with
                  | Error e -> k (Error (envelope_error e))
                  | Ok env ->
                      receive_value_envelope t ~from:src env (function
                        | Ok v -> k (Ok v)
                        | Error reason -> k (Error reason))))))
  | Message.Gossip { kind; body } ->
      (* Routed, not interpreted: semantics live in pti_cluster. *)
      t.gossip_handler ~src ~kind ~body

(* ---------------------------------------------------------------- *)
(* Construction                                                       *)
(* ---------------------------------------------------------------- *)

(* Bind the peer's cache gauges into its metrics registry under
   [peer.<addr>.*] (see HACKING.md for the naming scheme). They are
   callbacks reading the live LRU accounting, so a snapshot is always
   current without per-operation bookkeeping. Binding replaces any
   earlier callback under the same name, so it happens only once the
   address is registered: a rejected duplicate must not re-point the
   live peer's gauges. *)
let bind_gauges m ~addr sl event_log =
  let p name = Printf.sprintf "peer.%s.%s" addr name in
  let lru_gauges obj cache =
    let g name f =
      Metrics.gauge_fn m (p (obj ^ "." ^ name)) (fun () ->
          float_of_int (f (Lru.Str.counters cache)))
    in
    g "hits" (fun c -> c.Lru.hits);
    g "misses" (fun c -> c.Lru.misses);
    g "evictions" (fun c -> c.Lru.evictions);
    g "invalidations" (fun c -> c.Lru.invalidations);
    Metrics.gauge_fn m (p (obj ^ ".size")) (fun () ->
        float_of_int (Lru.Str.length cache));
    Metrics.gauge_fn m (p (obj ^ ".capacity")) (fun () ->
        float_of_int (Lru.Str.capacity cache))
  in
  lru_gauges "tdesc_cache" sl.sl_tdesc_cache;
  lru_gauges "known_paths" sl.sl_known_paths;
  Metrics.gauge_fn m (p "events.dropped") (fun () ->
      float_of_int (Ring.dropped event_log));
  let ck name f =
    Metrics.gauge_fn m (p ("checker." ^ name)) (fun () ->
        float_of_int (f (Checker.stats sl.sl_checker)))
  in
  ck "checks" (fun s -> s.Checker.checks);
  ck "cache_hits" (fun s -> s.Checker.cache_hits);
  ck "cache_misses" (fun s -> s.Checker.cache_misses);
  ck "cache_evictions" (fun s -> s.Checker.cache_evictions);
  ck "cache_size" (fun s -> s.Checker.cache_size);
  ck "top_hits" (fun s -> s.Checker.top_hits);
  ck "top_computes" (fun s -> s.Checker.top_computes);
  ck "invalidated" (fun s -> s.Checker.invalidated);
  ck "resolver_misses" (fun s -> s.Checker.resolver_misses)

(* Per-outcome counters under [peer.<addr>.*]; [Metrics.counter] is
   get-or-create, so binding them never disturbs a live peer. *)
let event_counters m ~addr =
  let p name = Printf.sprintf "peer.%s.%s" addr name in
  {
    mc_delivered = Metrics.counter m (p "delivered");
    mc_rejected = Metrics.counter m (p "rejected");
    mc_decode_failed = Metrics.counter m (p "decode_failed");
    mc_load_failed = Metrics.counter m (p "load_failed");
    mc_fetch_attempts = Metrics.counter m (p "fetch.attempts");
    mc_fetch_retries = Metrics.counter m (p "fetch.retries");
    mc_fetch_failovers = Metrics.counter m (p "fetch.failovers");
    mc_corrupt_rejects = Metrics.counter m (p "corrupt_rejects");
  }

(* Wire-efficiency counters: handle negotiation under [serial.<addr>.*]
   (it accounts serializer bytes), batching under [peer.<addr>.*]. *)
let bind_wire_metrics m ~addr =
  let s name = Printf.sprintf "serial.%s.handle.%s" addr name in
  let p name = Printf.sprintf "peer.%s.batch.%s" addr name in
  {
    mc_handle_hits = Metrics.counter m (s "hits");
    mc_handle_misses = Metrics.counter m (s "misses");
    mc_renegotiations = Metrics.counter m (s "renegotiations");
    mc_batch_messages = Metrics.counter m (p "messages");
    mc_batch_envelopes = Metrics.counter m (p "envelopes");
    mc_batch_bytes_saved = Metrics.counter m (p "bytes_saved");
  }

(* Build one flyweight block. A classic peer calls this privately from
   [create]; the scale driver calls it once and hands the block to every
   session it spawns. *)
let create_shared ?(config = Config.strict) ?(tdesc_cache_capacity = 512)
    ?checker_cache_capacity ?(handle_table_capacity = 512) ?(shards = 1) () =
  if shards < 1 then invalid_arg "Peer.create_shared: shards must be >= 1";
  let reg = Registry.create () in
  (* Capacity-aware per-shard sizing: the block-wide cache budget is
     split across shards (ceiling division, floor 1), so [~shards:k]
     costs what one block did while each shard's working set is
     isolated — a hot destination can only evict entries inside its own
     shard, never another's verdicts. *)
  let per cap = max 1 ((cap + shards - 1) / shards) in
  let make_slot _ =
    let tdesc_cache =
      Lru.Str.create ~capacity:(per tdesc_cache_capacity) ()
    in
    let desc_versions = Hashtbl.create 16 in
    let descs = Array.make descs_size None in
    let resolver name =
      match Registry.find reg name with
      | Some cd -> describe descs cd
      | None -> (
          let key = lc name in
          match Lru.Str.find tdesc_cache key with
          | Some d -> Some d
          | None -> (
              (* No bare binding: serve the newest version-pinned entry, so
                 nested references inside pinned envelopes resolve. *)
              match Hashtbl.find_opt desc_versions key with
              | Some v -> Lru.Str.find tdesc_cache (versioned_key key v)
              | None -> None))
    in
    let checker =
      Checker.create ~config
        ?cache_capacity:(Option.map per checker_cache_capacity)
        ~resolver ()
    in
    {
      sl_tdesc_cache = tdesc_cache;
      sl_descs = descs;
      sl_checker = checker;
      (* Advertised download paths: a fixed 512-entry block budget. *)
      sl_known_paths = Lru.Str.create ~capacity:(per 512) ();
      sl_px = Proxy.create_context reg checker;
      sl_desc_versions = desc_versions;
      sl_ht_pool = Queue.create ();
    }
  in
  {
    sh_reg = reg;
    sh_repo = Repository.create ();
    sh_loaded_versions = Hashtbl.create 16;
    sh_ht_capacity = handle_table_capacity;
    sh_slots = Array.init shards make_slot;
  }

let shard_count sh = Array.length sh.sh_slots

let shard_index sh addr =
  let k = Array.length sh.sh_slots in
  if k = 1 then 0
  else
    Int64.to_int
      (Int64.unsigned_rem (Pti_util.Fnv.hash64 addr) (Int64.of_int k))

let slot_of sh addr = sh.sh_slots.(shard_index sh addr)
let shared t = t.sh
let shared_registry sh = sh.sh_reg
let shared_repository sh = sh.sh_repo
let shared_checker sh = sh.sh_slots.(0).sl_checker

let shared_tdesc_cache_counters sh =
  Array.fold_left
    (fun (acc : Lru.counters) sl ->
      let c = Lru.Str.counters sl.sl_tdesc_cache in
      {
        Lru.hits = acc.Lru.hits + c.Lru.hits;
        misses = acc.Lru.misses + c.Lru.misses;
        evictions = acc.Lru.evictions + c.Lru.evictions;
        invalidations = acc.Lru.invalidations + c.Lru.invalidations;
        insertions = acc.Lru.insertions + c.Lru.insertions;
      })
    {
      Lru.hits = 0;
      misses = 0;
      evictions = 0;
      invalidations = 0;
      insertions = 0;
    }
    sh.sh_slots

let shared_tdesc_cache_size sh =
  Array.fold_left
    (fun n sl -> n + Lru.Str.length sl.sl_tdesc_cache)
    0 sh.sh_slots

let shared_pool_size sh =
  Array.fold_left (fun n sl -> n + Queue.length sl.sl_ht_pool) 0 sh.sh_slots

let shared_reuse_rate sh =
  (* Top-level verdict reuse aggregated across every shard's checker —
     the per-shard [Checker.reuse_rate]s weighted by check volume. *)
  let hits, total =
    Array.fold_left
      (fun (h, tot) sl ->
        let s = Checker.stats sl.sl_checker in
        ( h + s.Checker.top_hits,
          tot + s.Checker.top_hits + s.Checker.top_computes ))
      (0, 0) sh.sh_slots
  in
  if total = 0 then 0. else float_of_int hits /. float_of_int total

let create ?(mode = Optimistic) ?(codec = Envelope.Binary) ?metrics:m
    ?(event_log_capacity = 4096)
    ?(request_timeout_ms = default_request_timeout_ms)
    ?(fetch_retries = 0) ?(fetch_backoff_ms = 250.) ?(handles = false)
    ?batch_bytes ?(tdesc_binary = false) ?(share_inflight = true) ?shared
    ~transport addr =
  let sh = match shared with Some sh -> sh | None -> create_shared () in
  let sl = slot_of sh addr in
  let event_log = Ring.create ~capacity:event_log_capacity () in
  let m = match m with Some m -> m | None -> Metrics.create () in
  let t =
    {
      addr;
      tr = transport;
      ep = None;
      sh;
      sl;
      peer_mode = mode;
      codec;
      interests = [];
      next_interest = 0;
      default_sink = None;
      exported = Hashtbl.create 8;
      next_export = 0;
      next_token = 0;
      tdesc_conts = Hashtbl.create 8;
      asm_conts = Hashtbl.create 8;
      invoke_conts = Hashtbl.create 8;
      tdesc_inflight = Hashtbl.create 16;
      asm_inflight = Hashtbl.create 8;
      share_inflight;
      event_log;
      metrics = m;
      evt_ctrs = event_counters m ~addr;
      request_timeout_ms;
      fetch_retries;
      fetch_backoff_ms;
      mirror_provider = None;
      gossip_handler = (fun ~src:_ ~kind:_ ~body:_ -> ());
      handles;
      batch_bytes;
      tdesc_binary;
      h_send = Hashtbl.create 8;
      h_recv = Hashtbl.create 8;
      parked = Hashtbl.create 8;
      batches = Hashtbl.create 8;
      piggyback_provider = (fun ~dst:_ -> []);
      wire_ctrs = bind_wire_metrics m ~addr;
    }
  in
  t.ep <-
    Some
      (Transport.add_endpoint transport addr ~handler:(fun ~src msg ->
           handle t ~src msg));
  bind_gauges m ~addr sl event_log;
  t

let record_loaded_version t asm =
  let key = lc asm.Assembly.asm_name in
  let v = asm.Assembly.asm_version in
  match Hashtbl.find_opt t.sh.sh_loaded_versions key with
  | Some prev when prev >= v -> ()
  | _ -> Hashtbl.replace t.sh.sh_loaded_versions key v

let install_assembly t asm =
  Assembly.load t.sh.sh_reg asm;
  record_loaded_version t asm

let publish_assembly t asm =
  install_assembly t asm;
  let path = Repository.path_for ~host:t.addr ~assembly:asm.Assembly.asm_name in
  Repository.add t.sh.sh_repo ~path asm;
  Lru.Str.put t.sl.sl_known_paths (lc asm.Assembly.asm_name) path

(* Compare-and-set publish onto the repository's version chain. On
   success the new revision becomes the live code (old GUIDs stay
   registered so in-flight envelopes still decode version-pinned), the
   checker drops exactly the verdicts bound to superseded revisions
   (same-witness verdicts survive), and the advertised download path
   moves to the new head. *)
let publish_assembly_cas ?expect t asm =
  match Repository.publish_cas t.sh.sh_repo ~host:t.addr ~expect asm with
  | Error _ as e -> e
  | Ok ve ->
      let asm' = ve.Repository.ve_assembly in
      upgrade_assembly_local t asm';
      record_loaded_version t asm';
      Lru.Str.put t.sl.sl_known_paths
        (lc asm'.Assembly.asm_name)
        ve.Repository.ve_path;
      Ok ve

let serve_assembly t ?path asm =
  let path =
    match path with
    | Some p -> p
    | None ->
        Repository.path_for ~host:t.addr ~assembly:asm.Assembly.asm_name
  in
  Repository.add t.sh.sh_repo ~path asm

(* ---------------------------------------------------------------- *)
(* Cluster hooks                                                      *)
(* ---------------------------------------------------------------- *)

let set_mirror_provider t f = t.mirror_provider <- Some f
let set_gossip_handler t f = t.gossip_handler <- f
let set_piggyback_provider t f = t.piggyback_provider <- f

let send_gossip t ~dst ~kind ~body =
  send t ~dst (Message.Gossip { kind; body })

let learn_description t d = cache_desc t d
let local_description t name = local_desc t name

let known_descriptions t =
  (* Locally loaded code first; cached descriptions fill in types we
     know about but cannot execute. One entry per (lowercased) name. *)
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun cd ->
      Hashtbl.replace tbl
        (lc (Meta.qualified_name cd))
        (Meta.qualified_name cd, cd.Meta.td_guid))
    (Registry.all t.sh.sh_reg);
  Lru.Str.fold t.sl.sl_tdesc_cache ~init:()
    ~f:(fun key d () ->
      (* Version-pinned slots (keyed [name@vN]) are link-local decode
         aids, not knowledge to gossip. *)
      if
        String.equal key (lc (Td.qualified_name d))
        && not (Hashtbl.mem tbl key)
      then Hashtbl.replace tbl key (Td.qualified_name d, d.Td.ty_guid));
  Hashtbl.fold (fun _ entry acc -> entry :: acc) tbl []
  |> List.sort compare

type interest_id = int

let register_interest_id t ~interest cb =
  let id = t.next_interest in
  t.next_interest <- id + 1;
  t.interests <- t.interests @ [ (id, interest, cb) ];
  id

let register_interest t ~interest cb = ignore (register_interest_id t ~interest cb)

let unregister_interest t id =
  t.interests <- List.filter (fun (i, _, _) -> i <> id) t.interests

let interests t = List.map (fun (_, name, _) -> name) t.interests

let set_default_sink t sink = t.default_sink <- Some sink

(* Render an outgoing envelope, consulting this link's handle table when
   negotiation is on: known entries ship as bare refs, first uses as
   binds. *)
let encode_envelope t ~dst env =
  if not t.handles then Envelope.to_string env
  else begin
    let stab = sender_table t dst in
    Envelope.to_string_h env ~form:(fun e ->
        match Ht.obtain stab e with
        | `Known h ->
            Metrics.incr t.wire_ctrs.mc_handle_hits;
            `Ref h
        | `Fresh h ->
            Metrics.incr t.wire_ctrs.mc_handle_misses;
            `Bind h)
  end

(* Ship the open batch for [dst] as one framed message, with any gossip
   the cluster layer wants to piggyback on it. *)
let flush_batch t ~dst =
  match Hashtbl.find_opt t.batches dst with
  | None -> ()
  | Some bb ->
      Hashtbl.remove t.batches dst;
      let parts = List.rev bb.bb_parts in
      if parts <> [] then begin
        let piggyback = t.piggyback_provider ~dst in
        let msg = Message.Obj_batch { frame = Bf.encode { Bf.parts; piggyback } } in
        Metrics.incr t.wire_ctrs.mc_batch_messages;
        Metrics.add t.wire_ctrs.mc_batch_envelopes (List.length parts);
        let saved = bb.bb_standalone - Message.size msg in
        if saved > 0 then
          Metrics.add t.wire_ctrs.mc_batch_bytes_saved saved;
        send t ~dst msg
      end

let flush_batches t =
  (* Sorted: flush order decides wire order, and Hashtbl iteration order
     would make that depend on hashing (schedule replay needs it to be a
     pure function of peer state). *)
  Hashtbl.fold (fun dst _ acc -> dst :: acc) t.batches []
  |> List.sort String.compare
  |> List.iter (fun dst -> flush_batch t ~dst)

(* ---------------------------------------------------------------- *)
(* State fingerprint (model-checker hash pruning)                     *)
(* ---------------------------------------------------------------- *)

(* FNV-1a digest of everything observable about this peer: loaded code,
   served assemblies, cached descriptions, the event log, registered
   interests, pending subprotocol exchanges, parked envelopes, open
   batches and per-link handle tables. Every table is rendered in
   sorted order so the digest is a pure function of peer state, not of
   hash-bucket layout. Two simulation states with equal digests (for
   every peer, plus equal pending-event sets) behave identically under
   any future schedule — the model checker prunes on that. *)
let fingerprint t =
  let buf = Buffer.create 1024 in
  let add fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let sorted_keys tbl render =
    Hashtbl.fold (fun k v acc -> render k v :: acc) tbl []
    |> List.sort String.compare
    |> List.iter (fun s -> add "%s" s)
  in
  add "peer %s" t.addr;
  Registry.all t.sh.sh_reg
  |> List.map Meta.qualified_name
  |> List.sort String.compare
  |> List.iter (fun n -> add "reg %s" n);
  Repository.entries t.sh.sh_repo
  |> List.sort compare
  |> List.iter (fun (path, name) -> add "repo %s %s" path name);
  Lru.Str.fold t.sl.sl_tdesc_cache ~init:[] ~f:(fun key _ acc -> key :: acc)
  |> List.sort String.compare
  |> List.iter (fun key -> add "tdesc %s" key);
  List.iter (fun e -> add "evt %s" (Format.asprintf "%a" pp_event e))
    (Ring.to_list t.event_log);
  List.iter (fun (id, name, _) -> add "interest %d %s" id name) t.interests;
  add "exported %d" (Hashtbl.length t.exported);
  sorted_keys t.tdesc_conts (fun tok _ -> Printf.sprintf "tcont %d" tok);
  sorted_keys t.asm_conts (fun tok _ -> Printf.sprintf "acont %d" tok);
  sorted_keys t.invoke_conts (fun tok _ -> Printf.sprintf "icont %d" tok);
  sorted_keys t.tdesc_inflight (fun key w ->
      Printf.sprintf "tinf %s %d" key (List.length !w));
  sorted_keys t.asm_inflight (fun key w ->
      Printf.sprintf "ainf %s %d" key (List.length !w));
  sorted_keys t.parked (fun src lst ->
      Printf.sprintf "parked %s %d" src (List.length !lst));
  sorted_keys t.batches (fun dst bb ->
      Printf.sprintf "batch %s %d %d" dst (List.length bb.bb_parts)
        bb.bb_bytes);
  sorted_keys t.h_send (fun dst s ->
      Printf.sprintf "hsend %s %Lx" dst (Ht.fingerprint_sender s));
  sorted_keys t.h_recv (fun src r ->
      Printf.sprintf "hrecv %s %Lx" src (Ht.fingerprint_receiver r));
  Pti_util.Fnv.hash64 (Buffer.contents buf)

(* Queue one object message into [dst]'s open batch; flush when the byte
   budget fills, else by a delay-0 event — the simulator orders it after
   every send already issued at this instant, so same-tick sends
   coalesce. *)
let enqueue_part t ~dst ~budget envelope tdescs assemblies =
  let bb =
    match Hashtbl.find_opt t.batches dst with
    | Some bb -> bb
    | None ->
        let bb =
          { bb_parts = []; bb_standalone = 0; bb_bytes = 0;
            bb_scheduled = false }
        in
        Hashtbl.add t.batches dst bb;
        bb
  in
  bb.bb_parts <-
    { Bf.p_envelope = envelope; p_tdescs = tdescs; p_assemblies = assemblies }
    :: bb.bb_parts;
  bb.bb_standalone <-
    bb.bb_standalone
    + Message.size (Message.Obj_msg { envelope; tdescs; assemblies });
  bb.bb_bytes <-
    bb.bb_bytes + String.length envelope
    + List.fold_left (fun a s -> a + String.length s) 0 tdescs
    + List.fold_left (fun a s -> a + String.length s) 0 assemblies;
  if bb.bb_bytes >= budget then flush_batch t ~dst
  else if not bb.bb_scheduled then begin
    bb.bb_scheduled <- true;
    Transport.act t.tr ~owner:t.addr ~info:("batch-flush " ^ dst) ~delay_ms:0.
      (fun () -> flush_batch t ~dst)
  end

let send_value t ~dst value =
  let env = make_envelope t value in
  let envelope = encode_envelope t ~dst env in
  let tdescs, assemblies =
    match t.peer_mode with
    | Optimistic -> ([], [])
    | Eager ->
        (* Ship descriptions and code for every class in the graph, plus
           the transitive closure their assemblies bundle anyway. *)
        let names = Envelope.required_classes env in
        let descs =
          List.filter_map
            (fun n -> Option.map Td.to_xml_string (local_desc t n))
            names
        in
        let asm_names =
          List.filter_map
            (fun n ->
              Option.map
                (fun cd -> cd.Meta.td_assembly)
                (Registry.find t.sh.sh_reg n))
            names
          |> List.sort_uniq S.compare_ci
        in
        let asms =
          List.filter_map
            (fun a ->
              Option.map
                (fun (_, asm) -> Assembly_xml.to_string asm)
                (Repository.find_by_name t.sh.sh_repo a))
            asm_names
        in
        (descs, asms)
  in
  match t.batch_bytes with
  | Some budget -> enqueue_part t ~dst ~budget envelope tdescs assemblies
  | None -> send t ~dst (Message.Obj_msg { envelope; tdescs; assemblies })

(* ---------------------------------------------------------------- *)
(* Synchronous helpers (drive the shared simulation)                  *)
(* ---------------------------------------------------------------- *)

(* Sim: step the shared simulation until the predicate holds or the
   event queue drains (historical behavior, unchanged). Streams: poll
   the fabric with a real deadline scaled from the request timeout, so
   a lost reply degrades instead of spinning forever. *)
let drive_until t pred =
  match Transport.sim_net t.tr with
  | Some _ -> Transport.drive_until t.tr pred
  | None ->
      let deadline =
        Transport.now_ms t.tr +. Float.max 1_000. (3. *. t.request_timeout_ms)
      in
      Transport.drive_until t.tr ~deadline_ms:deadline pred

let fetch_type_description t ~from name =
  match local_desc t name with
  | Some d -> Some d
  | None ->
      let result = ref None in
      let got = ref false in
      request_tdesc_shared t ~from name (fun resp ->
          (match resp with
          | Some d -> cache_desc t d
          | None -> ());
          result := resp;
          got := true);
      ignore (drive_until t (fun () -> !got));
      !result

let export t value =
  match value with
  | Value.Vobj o ->
      let id = t.next_export in
      t.next_export <- id + 1;
      Hashtbl.replace t.exported id value;
      { rr_host = t.addr; rr_id = id; rr_class = o.Value.cls }
  | _ -> invalid_arg "Peer.export: only objects can be exported"

(* Synchronous remote invocation used by remote proxies. *)
let remote_invoke t ~host ~target ~meth args =
  let env =
    make_envelope t
      (Value.Varr
         { Value.elem_ty = Ty.Named "object"; items = Array.of_list args })
  in
  let token = fresh_token t in
  let outcome = ref None in
  Hashtbl.replace t.invoke_conts token (fun r -> outcome := Some r);
  send t ~dst:host
    (Message.Invoke_request
       { target; meth; args = Envelope.to_string env; token });
  ignore (drive_until t (fun () -> !outcome <> None));
  match !outcome with
  | Some (Ok v) -> v
  | Some (Error e) -> raise (Eval.Runtime_error ("remote: " ^ e))
  | None -> raise (Eval.Runtime_error "remote invocation lost (network idle)")

let acquire t rref ~interest =
  (* 1. obtain the remote type's description (and its closure). *)
  let got = ref false in
  ensure_descs t ~from:rref.rr_host [ rref.rr_class ] (fun () -> got := true);
  ignore (drive_until t (fun () -> !got));
  match local_desc t rref.rr_class with
  | None ->
      Error
        (Printf.sprintf "type %s unknown at %s" rref.rr_class rref.rr_host)
  | Some actual_d -> (
      match local_desc t interest with
      | None -> Error (Printf.sprintf "interest type %s not loaded" interest)
      | Some interest_d -> (
          (* 2. the rules check. *)
          match Checker.check t.sl.sl_checker ~actual:actual_d ~interest:interest_d with
          | Checker.Not_conformant fs -> Error (failure_message fs)
          | Checker.Conformant mapping ->
              (* 3. a remote dynamic proxy translating client-side. *)
              let px_invoke name args =
                let meth, actual_args =
                  match
                    Mapping.find mapping ~name ~arity:(List.length args)
                  with
                  | Some mm ->
                      ( mm.Mapping.mm_actual_name,
                        Mapping.permute args mm.Mapping.mm_perm )
                  | None -> (name, args)
                in
                remote_invoke t ~host:rref.rr_host ~target:rref.rr_id ~meth
                  (List.map Proxy.unwrap actual_args)
              in
              Ok
                (Value.Vproxy
                   {
                     Value.px_interface = interest;
                     px_target = Value.Vnull;
                     px_invoke;
                   })))
