(* Socket-backed transport fabric: Unix-domain and TCP byte streams.

   One [t] is a process's view of the network for one family: a set of
   local endpoints (each with a listening socket), the connections they
   hold, and a monotonic [Clock] whose timers fire from the poll loop.
   Everything is nonblocking and select-driven; nothing spawns threads.

   Wire format: each message is a [Framing] length-prefixed frame whose
   payload is either a hello ([0x48] + sender address, the first frame
   on every dialed connection, so the acceptor learns the dialer's
   logical address and replies can reuse the inbound connection — only
   dialers ever need the peer to be resolvable; a connection takes one
   hello, a second is an integrity drop) or data ([0x44] +
   category byte + f64 wall-clock send stamp + codec payload). The
   stamp is absolute wall milliseconds, not fabric-relative, so
   cross-process latency measurement works without clock negotiation
   (both ends sit on the same machine's clock).

   Reliability: TCP/Unix streams do not lose frames, so there is no
   per-message ARQ; the failure mode is the connection, and the ARQ
   policy knobs drive reconnect-with-backoff instead — a failed dial
   retries on an exponential [Arq.backoff_ms] schedule until
   [max_retries] is exhausted, with frames buffered while dialing and
   charged lost (per category, in [Stats]) when the link is abandoned.
   Every count the fabric keeps lives in its [Stats] view.

   Fault injection: the same [Net.fault_hooks] record the sim honors is
   applied here as send-side middleware (drop / duplicate / delay /
   corrupt / down), and [set_integrity] screens decoded values on
   arrival — so the chaos harness's vocabulary works over real kernel
   sockets. Partitions are a filter checked at send and at dispatch;
   the file descriptors stay open, the bytes stop. *)

module Splitmix = Pti_util.Splitmix
module Framing = Pti_serial.Framing
module W = Pti_serial.Bytes_io.Writer
module R = Pti_serial.Bytes_io.Reader
module Net = Pti_net.Net
module Arq = Pti_net.Arq
module Clock = Pti_net.Clock
module Stats = Pti_net.Stats

type address = string

type 'a codec = {
  c_encode : W.t -> 'a -> unit;
  c_decode : R.t -> ('a, string) result;
}

type family = Unix_socket | Tcp

type conn_event =
  | Connected of { local : address; peer : address }
  | Disconnected of { local : address; peer : address }

let wall_ms () = Unix.gettimeofday () *. 1000.

type conn = {
  fd : Unix.file_descr;
  cn_local : address;
  mutable cn_peer : address option;  (* None until the hello arrives *)
  cn_dec : Framing.Decoder.t;
  cn_out : string Queue.t;
  mutable cn_off : int;  (* partial-write offset into the queue head *)
  mutable cn_alive : bool;
}

type pending = {
  pd_frames : (Stats.category * string) Queue.t;
  mutable pd_attempt : int;
  mutable pd_timer : bool;  (* a reconnect timer is armed *)
}

type bind_spec = Bind_spec of string | Bind_fd of Unix.file_descr

type 'a t = {
  family : family;
  mutable codec : 'a codec;
  clock : Clock.t;
  stats : Stats.t;
  policy : Arq.policy;
  unix_dir : string;  (* socket directory (unix family) *)
  tcp_host : string;  (* bind/dial host (tcp family) *)
  endpoints : (address, 'a endpoint) Hashtbl.t;
  mutable conns : conn list;
  (* What [poll] hands to select, rebuilt only when an endpoint or a
     connection comes or goes: the endpoints, and every listening and
     connection descriptor. *)
  mutable eps : 'a endpoint list;
  mutable read_fds : Unix.file_descr list;
  remotes : (address, string) Hashtbl.t;  (* logical addr -> dial spec *)
  binds : (address, bind_spec) Hashtbl.t;  (* pre-registered listeners *)
  pendings : (address * address, pending) Hashtbl.t;
  partitions : (string, unit) Hashtbl.t;
  mutable faults : 'a Net.fault_hooks option;
  mutable integrity : ('a -> bool) option;
  mutable listeners : (conn_event -> unit) list;
  mutable closed : bool;
}

and 'a endpoint = {
  ep_addr : address;
  ep_handler : src:address -> 'a -> unit;
  ep_listen : Unix.file_descr;
  ep_spec : string;  (* what a dialer would use to reach this endpoint *)
  ep_owner : 'a t;
}

let ncat = List.length Stats.all_categories
let link_key a b = if a <= b then a ^ "|" ^ b else b ^ "|" ^ a

(* A burst write into a half-closed socket must surface as EPIPE, not
   kill the process. Global and idempotent. *)
let ignore_sigpipe =
  lazy (if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

let create ~family ?(policy = Arq.default) ?(unix_dir = "") ?(tcp_host = "127.0.0.1")
    ?metrics () =
  Lazy.force ignore_sigpipe;
  let unix_dir =
    if unix_dir <> "" then unix_dir
    else Filename.concat (Filename.get_temp_dir_name ()) "pti-sockets"
  in
  {
    family;
    codec =
      (* installed by the facade right after create; never used before *)
      {
        c_encode = (fun _ _ -> assert false);
        c_decode = (fun _ -> assert false);
      };
    clock = Clock.monotonic ~now:wall_ms ();
    stats = Stats.create ?metrics ();
    policy;
    unix_dir;
    tcp_host;
    endpoints = Hashtbl.create 8;
    conns = [];
    eps = [];
    read_fds = [];
    remotes = Hashtbl.create 8;
    binds = Hashtbl.create 4;
    pendings = Hashtbl.create 8;
    partitions = Hashtbl.create 4;
    faults = None;
    integrity = None;
    listeners = [];
    closed = false;
  }

let set_codec t codec = t.codec <- codec

let refresh_fds t =
  t.eps <- Hashtbl.fold (fun _ ep acc -> ep :: acc) t.endpoints [];
  t.read_fds <-
    List.map (fun ep -> ep.ep_listen) t.eps @ List.map (fun c -> c.fd) t.conns

let emit t ev = List.iter (fun f -> f ev) (List.rev t.listeners)
let on_conn_event t f = t.listeners <- f :: t.listeners

(* ---- address resolution ---------------------------------------------- *)

let sanitize addr =
  String.map (fun c -> if c = '/' || c = '\\' || c = ':' then '_' else c) addr

let unix_path t addr = Filename.concat t.unix_dir (sanitize addr ^ ".sock")

let parse_tcp_spec spec =
  match String.rindex_opt spec ':' with
  | None -> None
  | Some i ->
      let host = String.sub spec 0 i in
      let port = String.sub spec (i + 1) (String.length spec - i - 1) in
      (match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 ->
          Some ((if host = "" then "127.0.0.1" else host), p)
      | _ -> None)

let sockaddr_of_spec t spec =
  match t.family with
  | Unix_socket -> Some (Unix.ADDR_UNIX spec)
  | Tcp -> (
      match parse_tcp_spec spec with
      | None -> None
      | Some (host, port) ->
          (try
             let ip = Unix.inet_addr_of_string host in
             Some (Unix.ADDR_INET (ip, port))
           with _ -> (
             match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
             | { Unix.ai_addr; _ } :: _ -> Some ai_addr
             | [] -> None)))

let spec_of_sockaddr = function
  | Unix.ADDR_UNIX p -> p
  | Unix.ADDR_INET (ip, port) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port

let register_remote t addr spec = Hashtbl.replace t.remotes addr spec
let set_bind t addr spec = Hashtbl.replace t.binds addr (Bind_spec spec)
let set_bind_fd t addr fd = Hashtbl.replace t.binds addr (Bind_fd fd)

let resolve t addr =
  match Hashtbl.find_opt t.endpoints addr with
  | Some ep -> Some ep.ep_spec
  | None -> Hashtbl.find_opt t.remotes addr

(* ---- endpoints -------------------------------------------------------- *)

let socket_domain t =
  match t.family with Unix_socket -> Unix.PF_UNIX | Tcp -> Unix.PF_INET

let ensure_dir d = try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let make_listener t addr =
  match Hashtbl.find_opt t.binds addr with
  | Some (Bind_fd fd) -> fd  (* pre-opened (inherited across fork) *)
  | other ->
      let sockaddr =
        match (other, t.family) with
        | Some (Bind_fd _), _ -> assert false  (* handled above *)
        | Some (Bind_spec spec), _ -> (
            match sockaddr_of_spec t spec with
            | Some sa -> sa
            | None -> invalid_arg (Printf.sprintf "bad bind spec %S" spec))
        | None, Unix_socket ->
            ensure_dir t.unix_dir;
            let path = unix_path t addr in
            (try Unix.unlink path with Unix.Unix_error _ -> ());
            Unix.ADDR_UNIX path
        | None, Tcp ->
            Unix.ADDR_INET (Unix.inet_addr_of_string t.tcp_host, 0)
      in
      let fd = Unix.socket (socket_domain t) Unix.SOCK_STREAM 0 in
      (match t.family with
      | Tcp -> Unix.setsockopt fd Unix.SO_REUSEADDR true
      | Unix_socket -> ());
      Unix.bind fd sockaddr;
      Unix.listen fd 16;
      fd

let add_endpoint t addr ~handler =
  if Hashtbl.mem t.endpoints addr then
    invalid_arg (Printf.sprintf "Transport.add_endpoint: duplicate address %S" addr);
  let fd = make_listener t addr in
  Unix.set_nonblock fd;
  let spec = spec_of_sockaddr (Unix.getsockname fd) in
  let ep = { ep_addr = addr; ep_handler = handler; ep_listen = fd; ep_spec = spec; ep_owner = t } in
  Hashtbl.replace t.endpoints addr ep;
  refresh_fds t;
  ep

let listen_spec t addr =
  Option.map (fun ep -> ep.ep_spec) (Hashtbl.find_opt t.endpoints addr)

(* ---- connections ------------------------------------------------------ *)

let hello_frame addr =
  Framing.framed (fun w ->
      W.u8 w 0x48;
      W.raw w addr)

(* Header and message go straight into the frame being built: the frame
   is the one string a send allocates. *)
let data_frame codec ~category v =
  Framing.framed (fun w ->
      W.u8 w 0x44;
      W.u8 w (Stats.index category);
      W.f64 w (wall_ms ());
      codec.c_encode w v)

let is_link ~local ~peer c =
  c.cn_alive
  && String.equal c.cn_local local
  && match c.cn_peer with Some p -> String.equal p peer | None -> false

let rec find_link ~local ~peer = function
  | [] -> None
  | c :: rest ->
      if is_link ~local ~peer c then Some c else find_link ~local ~peer rest

let find_conn t ~local ~peer = find_link ~local ~peer t.conns

(* Every stream connection, dialed or accepted, is nonblocking, and on
   TCP sends each frame at once: with Nagle's algorithm on, a small
   frame written while the previous one is unacknowledged waits for the
   peer's delayed ACK, a 40 ms stall per request/reply exchange. *)
let add_conn t fd ~local ~peer =
  Unix.set_nonblock fd;
  (match t.family with
  | Tcp -> (
      (* A peer that already reset the connection fails this; the next
         read or write reports it. *)
      try Unix.setsockopt fd Unix.TCP_NODELAY true
      with Unix.Unix_error _ -> ())
  | Unix_socket -> ());
  let c =
    {
      fd;
      cn_local = local;
      cn_peer = peer;
      cn_dec = Framing.Decoder.create ();
      cn_out = Queue.create ();
      cn_off = 0;
      cn_alive = true;
    }
  in
  t.conns <- c :: t.conns;
  refresh_fds t;
  c

let kill_conn t c =
  if c.cn_alive then begin
    c.cn_alive <- false;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c' -> c' != c) t.conns;
    refresh_fds t;
    match c.cn_peer with
    | Some peer -> emit t (Disconnected { local = c.cn_local; peer })
    | None -> ()
  end

let enqueue c frame = Queue.push frame c.cn_out

let flush_conn t c =
  try
    while c.cn_alive && not (Queue.is_empty c.cn_out) do
      let head = Queue.peek c.cn_out in
      let n =
        Unix.write_substring c.fd head c.cn_off (String.length head - c.cn_off)
      in
      c.cn_off <- c.cn_off + n;
      if c.cn_off >= String.length head then begin
        ignore (Queue.pop c.cn_out);
        c.cn_off <- 0
      end
    done
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | Unix.Unix_error _ -> kill_conn t c

let pending_for t ~src ~dst =
  match Hashtbl.find_opt t.pendings (src, dst) with
  | Some p -> p
  | None ->
      let p = { pd_frames = Queue.create (); pd_attempt = 0; pd_timer = false } in
      Hashtbl.replace t.pendings (src, dst) p;
      p

(* Dial [dst] from [src]: blocking connect (instant or refused on
   loopback), then nonblocking forever after. On success the hello goes
   out first, then everything buffered while we were dialing. *)
let rec try_dial t ~src ~dst =
  if t.closed then ()
  else
    let p = pending_for t ~src ~dst in
    if p.pd_timer then ()
      (* A backoff timer owns the retry: sends arriving meanwhile just
         queue, they must not burn through the attempt budget. *)
    else
      match find_conn t ~local:src ~peer:dst with
    | Some c ->
        Queue.iter (fun (_, f) -> enqueue c f) p.pd_frames;
        Queue.clear p.pd_frames;
        flush_conn t c
    | None -> (
        match resolve t dst with
        | None ->
            invalid_arg
              (Printf.sprintf "Transport.send: unknown host %S (no endpoint, no registered remote)" dst)
        | Some spec -> (
            match sockaddr_of_spec t spec with
            | None -> invalid_arg (Printf.sprintf "bad dial spec %S for %S" spec dst)
            | Some sa -> (
                match
                  let fd = Unix.socket (socket_domain t) Unix.SOCK_STREAM 0 in
                  (try Unix.connect fd sa
                   with e ->
                     (try Unix.close fd with Unix.Unix_error _ -> ());
                     raise e);
                  fd
                with
                | fd ->
                    let c = add_conn t fd ~local:src ~peer:(Some dst) in
                    enqueue c (hello_frame src);
                    Queue.iter (fun (_, f) -> enqueue c f) p.pd_frames;
                    Queue.clear p.pd_frames;
                    p.pd_attempt <- 0;
                    emit t (Connected { local = src; peer = dst });
                    flush_conn t c
                | exception Unix.Unix_error _ ->
                    let attempt = p.pd_attempt in
                    p.pd_attempt <- attempt + 1;
                    if Arq.give_up t.policy ~attempt:(attempt + 1) then begin
                      (* Link abandoned: everything buffered for it is
                         lost, each frame charged to its own category. *)
                      Queue.iter
                        (fun (c, _) -> Stats.record_lost t.stats c)
                        p.pd_frames;
                      Queue.clear p.pd_frames;
                      p.pd_attempt <- 0
                    end
                    else if not p.pd_timer then begin
                      p.pd_timer <- true;
                      Stats.record_link t.stats Retransmission;
                      Clock.schedule t.clock
                        ~label:
                          (Clock.Timer
                             {
                               owner = src;
                               info = Printf.sprintf "reconnect#%d %s" attempt dst;
                             })
                        ~delay_ms:(Arq.backoff_ms t.policy ~attempt)
                        (fun () ->
                          p.pd_timer <- false;
                          if not (Queue.is_empty p.pd_frames) then
                            try_dial t ~src ~dst)
                    end)))

(* ---- fault middleware + send ----------------------------------------- *)

let severed t ~src ~dst =
  Hashtbl.mem t.partitions (link_key src dst)
  ||
  match t.faults with
  | None -> false
  | Some f -> f.Net.fh_down ~now:(Clock.now_ms t.clock) ~src ~dst

let send_frame t ~src ~dst ~category frame =
  match find_conn t ~local:src ~peer:dst with
  | Some c ->
      enqueue c frame;
      flush_conn t c
  | None ->
      Queue.push (category, frame) (pending_for t ~src ~dst).pd_frames;
      try_dial t ~src ~dst

let send t ep ~dst ~category ~size:_ payload =
  let src = ep.ep_addr in
  let now = Clock.now_ms t.clock in
  let copies =
    1
    + (match t.faults with
      | None -> 0
      | Some f -> max 0 (f.Net.fh_duplicates ~now ~src ~dst))
  in
  if copies > 1 then Stats.record_links t.stats Injected_duplicate (copies - 1);
  for _copy = 1 to copies do
    (* Sampled per copy, like the sim: each copy is independently
       dropped, corrupted and delayed. Bytes are charged for every copy
       (dropped or not, as the sim does) by the actual framed wire
       size, not the caller's logical estimate. *)
    let payload =
      match t.faults with
      | None -> payload
      | Some f -> (
          match f.Net.fh_corrupt ~now ~src ~dst payload with
          | None -> payload
          | Some p ->
              Stats.record_link t.stats Corrupted;
              p)
    in
    let frame = data_frame t.codec ~category payload in
    Stats.record t.stats category ~bytes:(String.length frame);
    let injected_drop =
      (not (severed t ~src ~dst))
      &&
      match t.faults with
      | None -> false
      | Some f ->
          let hit = f.Net.fh_drop ~now ~src ~dst in
          if hit then Stats.record_link t.stats Injected_drop;
          hit
    in
    if severed t ~src ~dst || injected_drop then
      Stats.record_link t.stats Dropped
    else
      let delay =
        match t.faults with
        | None -> 0.
        | Some f -> max 0. (f.Net.fh_delay ~now ~src ~dst)
      in
      if delay > 0. then
        Clock.schedule t.clock
          ~label:(Clock.Act { owner = src; info = "delayed-send " ^ dst })
          ~delay_ms:delay
          (fun () -> send_frame t ~src ~dst ~category frame)
      else send_frame t ~src ~dst ~category frame
  done

let connect t ep dst =
  match find_conn t ~local:ep.ep_addr ~peer:dst with
  | Some _ -> ()
  | None -> try_dial t ~src:ep.ep_addr ~dst

let disconnect t ep dst =
  match find_conn t ~local:ep.ep_addr ~peer:dst with
  | Some c ->
      flush_conn t c;
      kill_conn t c
  | None -> ()

(* ---- receive path ----------------------------------------------------- *)

(* [r] is a view of the frame inside the connection's decoder: valid
   only until the decoder is fed again, which a handler that polls
   does. So everything is read out of it (the codec copies what the
   message keeps) before any handler runs. *)
let dispatch t c frame_len r =
  try
    match R.u8 r with
    | 0x48 -> (
        (* hello: the dialer identifies itself, once. A second hello
           would re-point an established connection at another
           address, its handle tables and its continuations. *)
        match c.cn_peer with
        | Some _ -> Stats.record_link t.stats Integrity_drop
        | None ->
            let peer = R.rest r in
            c.cn_peer <- Some peer;
            emit t (Connected { local = c.cn_local; peer }))
    | 0x44 -> (
        match c.cn_peer with
        | None -> Stats.record_link t.stats Dropped  (* data before hello *)
        | Some peer ->
            let cat_idx = R.u8 r in
            let stamp = R.f64 r in
            let category =
              if cat_idx < ncat then Stats.of_index cat_idx else Stats.Control
            in
            Stats.record_rx t.stats category ~bytes:frame_len;
            if severed t ~src:peer ~dst:c.cn_local then
              (* A partition cut while the frame sat in kernel buffers
                 kills it on arrival, mirroring the sim's in-flight cut. *)
              Stats.record_link t.stats Dropped
            else (
              match t.codec.c_decode r with
              | Error _ -> Stats.record_link t.stats Integrity_drop
              | Ok v -> (
                  match t.integrity with
                  | Some chk when not (chk v) ->
                      Stats.record_link t.stats Integrity_drop
                  | _ -> (
                      Stats.record_latency t.stats category
                        ~ms:(Float.max 0. (wall_ms () -. stamp));
                      match Hashtbl.find_opt t.endpoints c.cn_local with
                      | None -> Stats.record_link t.stats Dropped
                      | Some ep -> ep.ep_handler ~src:peer v))))
    | _ -> Stats.record_link t.stats Integrity_drop
  with R.Underflow _ -> Stats.record_link t.stats Integrity_drop

let read_chunk = Bytes.create 65536

(* Frames are dispatched as they complete. A handler may poll, and so
   feed this decoder and dispatch later frames itself before it
   returns; this loop then goes on from wherever the decoder is. *)
let rec drain t c =
  if c.cn_alive then
    match Framing.Decoder.next c.cn_dec with
    | Framing.Decoder.Frame ->
        dispatch t c
          (Framing.Decoder.frame_size c.cn_dec)
          (Framing.Decoder.view c.cn_dec);
        drain t c
    | Framing.Decoder.Partial -> ()
    | Framing.Decoder.Bad _ ->
        (* Unframeable garbage: the stream is unrecoverable. *)
        Stats.record_link t.stats Integrity_drop;
        kill_conn t c

let service_read t c =
  match Unix.read c.fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 -> kill_conn t c
  | n ->
      Framing.Decoder.feed c.cn_dec ~len:n (Bytes.unsafe_to_string read_chunk);
      drain t c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> kill_conn t c

let service_accept t ep =
  let rec go () =
    match Unix.accept ep.ep_listen with
    | fd, _ ->
        ignore (add_conn t fd ~local:ep.ep_addr ~peer:None);
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* ---- the poll loop ---------------------------------------------------- *)

let has_buffered_out t =
  List.exists (fun c -> c.cn_alive && not (Queue.is_empty c.cn_out)) t.conns

(* Descriptors with output waiting; [] (no allocation) when none has. *)
let rec write_fds = function
  | [] -> []
  | c :: rest ->
      if Queue.is_empty c.cn_out then write_fds rest else c.fd :: write_fds rest

let rec service_accepts t r = function
  | [] -> ()
  | ep :: rest ->
      if List.memq ep.ep_listen r then service_accept t ep;
      service_accepts t r rest

let rec service_reads t r = function
  | [] -> ()
  | c :: rest ->
      if c.cn_alive && List.memq c.fd r then service_read t c;
      service_reads t r rest

let rec service_writes t w = function
  | [] -> ()
  | c :: rest ->
      if c.cn_alive && List.memq c.fd w then flush_conn t c;
      service_writes t w rest

let poll t ~timeout_ms =
  if t.closed then false
  else begin
    (* Snapshots: servicing may add or kill connections. *)
    let eps = t.eps and conns = t.conns in
    let timeout =
      let t_io = Float.max 0. timeout_ms in
      match Clock.next_due_ms t.clock with
      | Some due -> Float.min t_io due /. 1000.
      | None -> t_io /. 1000.
    in
    let r, w, _ =
      try Unix.select t.read_fds (write_fds conns) [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if r <> [] then begin
      service_accepts t r eps;
      service_reads t r conns
    end;
    if w <> [] then service_writes t w conns;
    let fired = Clock.tick t.clock in
    r <> [] || w <> [] || fired > 0
  end

(* Run "to quiescence": until a few consecutive polls see no I/O, no
   fired timer, nothing buffered and no timer due soon. A stream fabric
   has no global done-signal the way the sim's empty event queue is, so
   this is a heuristic — protocol drivers should prefer [drive_until]
   with a real predicate. *)
let run t =
  let deadline = Clock.now_ms t.clock +. 30_000. in
  let rec go idle =
    if idle >= 3 || Clock.now_ms t.clock > deadline then ()
    else
      let active = poll t ~timeout_ms:20. in
      let due_soon =
        match Clock.next_due_ms t.clock with Some d -> d <= 100. | None -> false
      in
      if active || has_buffered_out t || due_soon then go 0 else go (idle + 1)
  in
  go 0

let drive_until t ?deadline_ms pred =
  let deadline =
    match deadline_ms with
    | Some d -> d
    | None -> Clock.now_ms t.clock +. 30_000.
  in
  let rec go () =
    if pred () then true
    else if Clock.now_ms t.clock >= deadline then pred ()
    else begin
      let budget = Float.min 20. (deadline -. Clock.now_ms t.clock) in
      ignore (poll t ~timeout_ms:budget);
      go ()
    end
  in
  go ()

(* ---- faults / partitions / introspection ----------------------------- *)

let set_fault_hooks t f = t.faults <- f
let set_integrity t f = t.integrity <- f
let partition t a b = Hashtbl.replace t.partitions (link_key a b) ()
let heal t a b = Hashtbl.remove t.partitions (link_key a b)

let clock t = t.clock
let stats t = t.stats
let family t = t.family

let endpoints t =
  Hashtbl.fold (fun a _ acc -> a :: acc) t.endpoints []
  |> List.sort String.compare

let remove_endpoint t addr =
  match Hashtbl.find_opt t.endpoints addr with
  | None -> ()
  | Some ep ->
      Hashtbl.remove t.endpoints addr;
      refresh_fds t;
      List.iter (fun c -> if c.cn_local = addr then kill_conn t c) t.conns;
      (try Unix.close ep.ep_listen with Unix.Unix_error _ -> ());
      if t.family = Unix_socket then
        try Unix.unlink (unix_path t addr) with Unix.Unix_error _ -> ()

let close t =
  if not t.closed then begin
    (* Give buffered output one last chance to leave. *)
    List.iter (fun c -> flush_conn t c) t.conns;
    List.iter (fun c -> kill_conn t c) t.conns;
    List.iter (fun a -> remove_endpoint t a) (endpoints t);
    t.closed <- true
  end
