(* Tests for the pluggable transport fabric: stream loopback exchange,
   fault middleware on real sockets, partitions, and a forked
   two-process publish -> conform -> invoke run over unix sockets.

   Everything here drives kernel sockets; where the environment cannot
   provide them (no AF_UNIX/AF_INET, no fork) the tests skip cleanly
   instead of failing. *)

module Transport = Pti_transport.Transport
module Stats = Pti_net.Stats
module Peer = Pti_core.Peer
module Message_wire = Pti_core.Message_wire
module Demo = Pti_demo.Demo_types
module Value = Pti_cts.Value
module Proxy = Pti_proxy.Dynamic_proxy

module W = Pti_serial.Bytes_io.Writer
module R = Pti_serial.Bytes_io.Reader

let string_codec =
  {
    Transport.c_encode = W.raw;
    c_decode =
      (fun r ->
        let s = R.rest r in
        if String.length s > 0 && s.[0] = '!' then Error "poisoned frame"
        else Ok s);
  }

(* Socket support probe: skip rather than fail on exotic sandboxes. *)
let skip_unless_sockets domain =
  match Unix.socket domain Unix.SOCK_STREAM 0 with
  | fd -> Unix.close fd
  | exception Unix.Unix_error _ -> Alcotest.skip ()

let fresh_unix_fabric ?reliability () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pti-ttest-%d-%d" (Unix.getpid ()) (Random.int 100000))
  in
  (try Unix.mkdir dir 0o700
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (Transport.create_unix ~dir ?reliability ~codec:string_codec (), dir)

let fabric_of_kind = function
  | Transport.Unix_socket ->
      skip_unless_sockets Unix.PF_UNIX;
      fst (fresh_unix_fabric ())
  | Transport.Tcp ->
      skip_unless_sockets Unix.PF_INET;
      Transport.create_tcp ~codec:string_codec ()
  | Transport.Sim -> invalid_arg "stream kinds only"

(* Both endpoints live on one fabric: the poll loop services the
   listener and the dialed connection in the same process. *)
let wire_pair tr ~on_b =
  let a = Transport.add_endpoint tr "a" ~handler:(fun ~src:_ _ -> ()) in
  let _b = Transport.add_endpoint tr "b" ~handler:on_b in
  (match Transport.listen_spec tr "b" with
  | Some spec -> Transport.register_remote tr "b" spec
  | None -> Alcotest.fail "endpoint b has no listen spec");
  a

let test_stream_loopback kind () =
  let tr = fabric_of_kind kind in
  let got = ref [] in
  let events = ref [] in
  Transport.on_conn_event tr (fun e -> events := e :: !events);
  let a = wire_pair tr ~on_b:(fun ~src s -> got := (src, s) :: !got) in
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:5 "hello";
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:5 "world";
  let ok =
    Transport.drive_until tr
      ~deadline_ms:(Transport.now_ms tr +. 10_000.)
      (fun () -> List.length !got = 2)
  in
  Alcotest.(check bool) "both delivered" true ok;
  Alcotest.(check (list (pair string string)))
    "payloads in order, src attributed"
    [ ("a", "hello"); ("a", "world") ]
    (List.rev !got);
  (* Receive-side accounting counts actual framed bytes. *)
  Alcotest.(check bool) "rx bytes counted" true
    (Transport.received_bytes tr Stats.Object_msg > 10);
  Alcotest.(check bool) "tx bytes counted" true
    (Stats.total_bytes (Transport.stats tr) > 10);
  Alcotest.(check bool) "connection events seen" true
    (List.exists (function Transport.Connected _ -> true | _ -> false)
       !events);
  Transport.close tr

(* Regression: TCP connections must send each frame at once. Every
   round, a sends two small frames with a poll between them and b
   answers the second. With Nagle's algorithm on, the second frame
   waits for b's delayed ACK of the first (about 40 ms on Linux), so
   the 50 rounds took seconds; with TCP_NODELAY they take milliseconds. *)
let test_tcp_no_nagle_stall () =
  skip_unless_sockets Unix.PF_INET;
  let tr = Transport.create_tcp ~codec:string_codec () in
  let replies = ref 0 in
  let a =
    Transport.add_endpoint tr "a" ~handler:(fun ~src:_ _ -> incr replies)
  in
  let b = ref None in
  b :=
    Some
      (Transport.add_endpoint tr "b" ~handler:(fun ~src s ->
           match !b with
           | Some b when s = "second" ->
               Transport.send b ~dst:src ~category:Stats.Object_msg ~size:4
                 "done"
           | _ -> ()));
  (match Transport.listen_spec tr "b" with
  | Some spec -> Transport.register_remote tr "b" spec
  | None -> Alcotest.fail "endpoint b has no listen spec");
  let round () =
    let want = !replies + 1 in
    Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:5 "first";
    ignore (Transport.poll tr ~timeout_ms:1.);
    Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:6 "second";
    Transport.drive_until tr
      ~deadline_ms:(Transport.now_ms tr +. 10_000.)
      (fun () -> !replies = want)
  in
  (* One round to connect, then time the steady state. *)
  Alcotest.(check bool) "connected" true (round ());
  let t0 = Unix.gettimeofday () in
  for i = 1 to 50 do
    if not (round ()) then Alcotest.failf "round %d got no reply" i
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Transport.close tr;
  Alcotest.(check bool)
    (Printf.sprintf "50 rounds in %.3f s (< 1 s)" elapsed)
    true (elapsed < 1.0)

let test_stream_fault_middleware () =
  skip_unless_sockets Unix.PF_UNIX;
  let tr = fst (fresh_unix_fabric ()) in
  let got = ref 0 in
  let a = wire_pair tr ~on_b:(fun ~src:_ _ -> incr got) in
  let dropping = ref true in
  Transport.set_fault_hooks tr
    (Some
       {
         Pti_net.Net.no_faults with
         Pti_net.Net.fh_drop = (fun ~now:_ ~src:_ ~dst:_ -> !dropping);
       });
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:1 "x";
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:1 "y";
  ignore
    (Transport.drive_until tr
       ~deadline_ms:(Transport.now_ms tr +. 500.)
       (fun () -> false));
  Alcotest.(check int) "both eaten by middleware" 2
    (Transport.injected_drops tr);
  Alcotest.(check int) "nothing delivered" 0 !got;
  dropping := false;
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:1 "z";
  let ok =
    Transport.drive_until tr
      ~deadline_ms:(Transport.now_ms tr +. 10_000.)
      (fun () -> !got = 1)
  in
  Alcotest.(check bool) "delivered once hooks stand down" true ok;
  Transport.close tr

let test_stream_corruption_and_integrity () =
  skip_unless_sockets Unix.PF_UNIX;
  let tr = fst (fresh_unix_fabric ()) in
  let got = ref 0 in
  let a = wire_pair tr ~on_b:(fun ~src:_ _ -> incr got) in
  (* Corrupt every frame into the codec's poison pattern: the send side
     counts the mangling, the receive side counts the codec rejecting
     it — wire damage never reaches the handler. *)
  Transport.set_fault_hooks tr
    (Some
       {
         Pti_net.Net.no_faults with
         Pti_net.Net.fh_corrupt =
           (fun ~now:_ ~src:_ ~dst:_ s -> Some ("!" ^ s));
       });
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:1 "m";
  ignore
    (Transport.drive_until tr
       ~deadline_ms:(Transport.now_ms tr +. 10_000.)
       (fun () -> Transport.integrity_drops tr = 1));
  Alcotest.(check int) "corruption charged at send" 1
    (Transport.corrupted_frames tr);
  Alcotest.(check int) "undecodable frame dropped at receive" 1
    (Transport.integrity_drops tr);
  Alcotest.(check int) "handler never saw it" 0 !got;
  (* An application-level integrity predicate screens decoded values the
     same way. *)
  Transport.set_fault_hooks tr None;
  Transport.set_integrity tr (Some (fun s -> s <> "tainted"));
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:7 "tainted";
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:5 "clean";
  let ok =
    Transport.drive_until tr
      ~deadline_ms:(Transport.now_ms tr +. 10_000.)
      (fun () -> !got = 1)
  in
  Alcotest.(check bool) "clean value delivered" true ok;
  Alcotest.(check int) "tainted value screened" 2
    (Transport.integrity_drops tr);
  Transport.close tr

let test_stream_partition_heal () =
  skip_unless_sockets Unix.PF_UNIX;
  let tr = fst (fresh_unix_fabric ()) in
  let got = ref [] in
  let a = wire_pair tr ~on_b:(fun ~src:_ s -> got := s :: !got) in
  Transport.partition tr "a" "b";
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:4 "lost";
  ignore
    (Transport.drive_until tr
       ~deadline_ms:(Transport.now_ms tr +. 300.)
       (fun () -> false));
  Alcotest.(check (list string)) "severed link delivers nothing" [] !got;
  Alcotest.(check bool) "drop accounted" true
    (Transport.dropped_messages tr >= 1);
  Transport.heal tr "a" "b";
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:5 "after";
  let ok =
    Transport.drive_until tr
      ~deadline_ms:(Transport.now_ms tr +. 10_000.)
      (fun () -> !got = [ "after" ])
  in
  Alcotest.(check bool) "healed link delivers" true ok;
  Transport.close tr

(* ------------------------------------------------------------------ *)
(* Cross-backend accounting parity                                     *)
(* ------------------------------------------------------------------ *)

(* The sim and a unix fabric count the same link events the same way.
   Both get the same deterministic fault phases, [n] sends each, and one
   integrity predicate refusing the poison prefix: every frame
   duplicated once (both copies delivered), every frame dropped by the
   middleware, every frame corrupted and refused on arrival. *)
let test_cross_backend_parity () =
  skip_unless_sockets Unix.PF_UNIX;
  let n = 4 in
  let counts tr =
    let got = ref 0 in
    let a = Transport.add_endpoint tr "a" ~handler:(fun ~src:_ _ -> ()) in
    let _b =
      Transport.add_endpoint tr "b" ~handler:(fun ~src:_ _ -> incr got)
    in
    Option.iter (Transport.register_remote tr "b")
      (Transport.listen_spec tr "b");
    Transport.set_integrity tr
      (Some (fun s -> not (String.starts_with ~prefix:"!" s)));
    let phase hooks ~until =
      Transport.set_fault_hooks tr (Some hooks);
      for i = 1 to n do
        Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:8
          (Printf.sprintf "m%d" i)
      done;
      if
        not
          (Transport.drive_until tr
             ~deadline_ms:(Transport.now_ms tr +. 10_000.)
             until)
      then
        Alcotest.failf "%s: phase did not settle"
          (Transport.kind_name (Transport.kind tr))
    in
    let no = Pti_net.Net.no_faults in
    phase
      { no with Pti_net.Net.fh_duplicates = (fun ~now:_ ~src:_ ~dst:_ -> 1) }
      ~until:(fun () -> !got = 2 * n);
    phase
      { no with Pti_net.Net.fh_drop = (fun ~now:_ ~src:_ ~dst:_ -> true) }
      ~until:(fun () -> true);
    phase
      {
        no with
        Pti_net.Net.fh_corrupt = (fun ~now:_ ~src:_ ~dst:_ s -> Some ("!" ^ s));
      }
      ~until:(fun () -> Transport.integrity_drops tr = n);
    let c =
      [
        ("tx messages", Stats.messages (Transport.stats tr) Stats.Object_msg);
        ("delivered", !got);
        ("dropped", Transport.dropped_messages tr);
        ("injected duplicates", Transport.injected_duplicates tr);
        ("injected drops", Transport.injected_drops tr);
        ("corrupted frames", Transport.corrupted_frames tr);
        ("integrity drops", Transport.integrity_drops tr);
      ]
    in
    Transport.close tr;
    c
  in
  let sim = counts (Transport.of_net (Pti_net.Net.create ())) in
  let unix = counts (fst (fresh_unix_fabric ())) in
  Alcotest.(check (list (pair string int))) "sim counts"
    [
      ("tx messages", 4 * n); ("delivered", 2 * n); ("dropped", n);
      ("injected duplicates", n); ("injected drops", n);
      ("corrupted frames", n); ("integrity drops", n);
    ]
    sim;
  Alcotest.(check (list (pair string int))) "unix counts equal sim" sim unix

(* A stream link that gives up redialing charges every frame it had
   queued as lost, each to its own category. *)
let test_stream_give_up_lost_per_category () =
  skip_unless_sockets Unix.PF_UNIX;
  let tr, dir =
    fresh_unix_fabric
      ~reliability:
        { Pti_net.Arq.retransmit_ms = 1.; max_retries = 1; ack_bytes = 0 }
      ()
  in
  let a = Transport.add_endpoint tr "a" ~handler:(fun ~src:_ _ -> ()) in
  Transport.register_remote tr "ghost" (Filename.concat dir "ghost.sock");
  Transport.send a ~dst:"ghost" ~category:Stats.Object_msg ~size:1 "o1";
  Transport.send a ~dst:"ghost" ~category:Stats.Object_msg ~size:1 "o2";
  Transport.send a ~dst:"ghost" ~category:Stats.Tdesc_request ~size:1 "t";
  let gave_up =
    Transport.drive_until tr
      ~deadline_ms:(Transport.now_ms tr +. 5_000.)
      (fun () -> Transport.lost_messages tr = 3)
  in
  Alcotest.(check bool) "link given up" true gave_up;
  let s = Transport.stats tr in
  Alcotest.(check int) "one redial" 1 (Transport.retransmissions tr);
  Alcotest.(check int) "objects lost" 2 (Stats.lost_for s Stats.Object_msg);
  Alcotest.(check int) "tdesc requests lost" 1
    (Stats.lost_for s Stats.Tdesc_request);
  Alcotest.(check int) "nothing else lost" 0 (Stats.lost_for s Stats.Control);
  Transport.close tr

(* ------------------------------------------------------------------ *)
(* Two processes over a unix socket: publish -> conform -> invoke      *)
(* ------------------------------------------------------------------ *)

let objects = 3

(* Receiver child: interest in the social family it has never seen
   (forcing the publish/fetch/conform subprotocol against the sender),
   plus an exported greeter the sender will invoke remotely. *)
let forked_receiver tr =
  let hung_up = ref false in
  Transport.on_conn_event tr (function
    | Transport.Disconnected _ -> hung_up := true
    | Transport.Connected _ -> ());
  let peer = Peer.create ~transport:tr "receiver" in
  let delivered = ref 0 in
  Peer.register_interest peer ~interest:Demo.social_person (fun ~from:_ _ ->
      incr delivered);
  (* First export on a fresh peer => rr_id 0: the sender reconstructs
     the ref without a side channel. *)
  Peer.install_assembly peer (Demo.news_assembly ());
  ignore
    (Peer.export peer
       (Demo.make_news_person (Peer.registry peer) ~name:"greeter" ~age:9));
  let announced = ref false in
  let done_ () =
    if (not !announced) && !delivered >= objects then begin
      announced := true;
      Peer.send_gossip peer ~dst:"sender" ~kind:"test-done" ~body:""
    end;
    !announced && !hung_up
  in
  ignore
    (Transport.drive_until tr
       ~deadline_ms:(Transport.now_ms tr +. 30_000.)
       done_);
  Transport.close tr;
  if !delivered = objects then 0 else 1

let forked_sender tr =
  let sender = Peer.create ~transport:tr "sender" in
  let receiver_done = ref false in
  Peer.set_gossip_handler sender (fun ~src:_ ~kind ~body:_ ->
      if kind = "test-done" then receiver_done := true);
  Peer.install_assembly sender (Demo.news_assembly ());
  Peer.install_assembly sender (Demo.social_assembly ());
  Peer.publish_assembly sender (Demo.social_assembly ());
  for n = 1 to objects do
    Peer.send_value sender ~dst:"receiver"
      (Demo.make_social_person (Peer.registry sender)
         ~name:(Printf.sprintf "s%d" n) ~age:n);
    ignore (Transport.poll tr ~timeout_ms:0.)
  done;
  let rref =
    { Peer.rr_host = "receiver"; rr_id = 0; rr_class = Demo.news_person }
  in
  let greeting =
    match Peer.acquire sender rref ~interest:Demo.news_person with
    | Error e -> Error ("acquire: " ^ e)
    | Ok proxy -> (
        match Proxy.invoke (Peer.registry sender) proxy "greet" [] with
        | Value.Vstring s -> Ok s
        | v -> Error ("greet returned " ^ Value.to_string v)
        | exception e -> Error ("greet raised " ^ Printexc.to_string e))
  in
  let all_done =
    Transport.drive_until tr
      ~deadline_ms:(Transport.now_ms tr +. 30_000.)
      (fun () -> !receiver_done)
  in
  Transport.close tr;
  match greeting with
  | Ok "Hello, greeter" when all_done -> 0
  | Ok s -> Printf.eprintf "unexpected greeting %S\n%!" s; 1
  | Error e -> Printf.eprintf "invoke failed: %s\n%!" e; 1

let test_forked_unix_protocol () =
  skip_unless_sockets Unix.PF_UNIX;
  (match Unix.fork () with
  | exception Unix.Unix_error _ -> Alcotest.skip ()
  | 0 -> Stdlib.exit 0
  | pid -> ignore (Unix.waitpid [] pid));
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pti-fork-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let spec = Filename.concat dir "receiver.sock" in
  (* Dial retries absorb the race between the parent's first connect and
     the child's bind. *)
  let reliability =
    { Pti_net.Arq.retransmit_ms = 50.; max_retries = 8; ack_bytes = 16 }
  in
  let fabric () =
    Transport.create_unix ~dir ~reliability ~codec:Message_wire.codec ()
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let status =
        try
          let tr = fabric () in
          Transport.set_bind tr "receiver" spec;
          forked_receiver tr
        with _ -> 2
      in
      Stdlib.exit status
  | pid ->
      let sender_status =
        try
          let tr = fabric () in
          Transport.register_remote tr "receiver" spec;
          forked_sender tr
        with e ->
          Printf.eprintf "sender raised %s\n%!" (Printexc.to_string e);
          2
      in
      let _, child_st = Unix.waitpid [] pid in
      let child_status =
        match child_st with Unix.WEXITED n -> n | _ -> 2
      in
      (try Unix.unlink spec with Unix.Unix_error _ -> ());
      (try Unix.rmdir dir with Unix.Unix_error _ -> ());
      Alcotest.(check int) "sender side clean" 0 sender_status;
      Alcotest.(check int) "receiver side clean" 0 child_status

(* --------------------------- frame wire ---------------------------- *)

module Stream = Pti_transport.Stream
module Framing = Pti_serial.Framing
module Message = Pti_core.Message

let message_codec =
  { Stream.c_encode = Message_wire.write; c_decode = Message_wire.read }

(* The send path as it was: the message encoded on its own, copied
   behind a data header in a second writer, then copied behind the
   length prefix in a third. *)
let original_frame ~category ~stamp m =
  let payload = Message_wire.encode m in
  let w = W.create ~initial:(String.length payload + 16) () in
  W.u8 w 0x44;
  W.u8 w (Stats.index category);
  W.f64 w stamp;
  W.raw w payload;
  let body = W.contents w in
  let w = W.create ~initial:(String.length body + 5) () in
  W.varint w (String.length body);
  W.raw w body;
  W.contents w

(* The eight bytes of the wall-clock stamp, after the length prefix,
   the 0x44 tag and the category byte. *)
let mask_stamp frame =
  let rec prefix i = if Char.code frame.[i] < 0x80 then i + 1 else prefix (i + 1) in
  let b = Bytes.of_string frame in
  Bytes.fill b (prefix 0 + 2) 8 '\000';
  Bytes.to_string b

let gen_message =
  let open QCheck.Gen in
  let str =
    oneof
      [ string_size ~gen:char (int_bound 12); string_size ~gen:char (100 -- 400) ]
  in
  let strs = list_size (int_bound 3) str in
  let nat = oneof [ int_bound 127; 128 -- 1_000_000; return (max_int / 4) ] in
  oneof
    [
      map3
        (fun envelope tdescs assemblies ->
          Message.Obj_msg { envelope; tdescs; assemblies })
        str strs strs;
      map (fun frame -> Message.Obj_batch { frame }) str;
      map3
        (fun type_name token (binary_ok, version) ->
          Message.Tdesc_request { type_name; token; binary_ok; version })
        str nat (pair bool (oneof [ return 0; nat ]));
      map3
        (fun type_name desc token -> Message.Tdesc_reply { type_name; desc; token })
        str (opt str) nat;
      map2 (fun path token -> Message.Asm_request { path; token }) str nat;
      map3
        (fun path assembly token -> Message.Asm_reply { path; assembly; token })
        str (opt str) nat;
      map3
        (fun (target, meth) args token ->
          Message.Invoke_request { target; meth; args; token })
        (pair (int_range (-1_000_000) 1_000_000) str)
        str nat;
      map3
        (fun token result error -> Message.Invoke_reply { token; result; error })
        nat (opt str) (opt str);
      map2 (fun kind body -> Message.Gossip { kind; body }) str str;
      map (fun handles -> Message.Handle_nak { handles }) (list_size (int_bound 5) nat);
      map (fun frame -> Message.Handle_bind { frame }) str;
    ]

(* A frame built once in the spare writer has the bytes of the
   three-copy original, stamp aside; read back through the decoder's
   in-place views, re-chunked at random, it gives back every message. *)
let prop_frames_match_original =
  QCheck.Test.make ~name:"framed bytes = the original chain; views decode"
    ~count:300
    QCheck.(
      pair
        (make Gen.(list_size (1 -- 6) (pair gen_message (oneofl Stats.all_categories))))
        (0 -- 1_000_000))
    (fun (msgs, seed) ->
      let frames =
        List.map
          (fun (m, category) -> Stream.data_frame message_codec ~category m)
          msgs
      in
      let same =
        List.for_all2
          (fun (m, category) frame ->
            String.equal (mask_stamp frame)
              (mask_stamp (original_frame ~category ~stamp:0. m)))
          msgs frames
      in
      let wire = String.concat "" frames in
      let st = Random.State.make [| seed |] in
      let dec = Framing.Decoder.create () in
      let got = ref [] and ok = ref true and pos = ref 0 in
      while !ok && !pos < String.length wire do
        let n = 1 + Random.State.int st (String.length wire - !pos) in
        Framing.Decoder.feed dec ~off:!pos ~len:n wire;
        pos := !pos + n;
        let rec pop () =
          match Framing.Decoder.next dec with
          | Framing.Decoder.Frame ->
              let r = Framing.Decoder.view dec in
              let tag = R.u8 r in
              let cat = R.u8 r in
              ignore (R.f64 r);
              (match Message_wire.read r with
              | Ok m when tag = 0x44 -> got := (m, Stats.of_index cat) :: !got
              | _ -> ok := false);
              pop ()
          | Framing.Decoder.Partial -> ()
          | Framing.Decoder.Bad _ -> ok := false
        in
        pop ()
      done;
      same && !ok && List.rev !got = msgs)

(* Regression: the first hello names the dialer for good. Before, every
   0x48 frame set the connection's peer, so any dialer could send a
   second hello and have its later frames attributed to another address
   (reaching that address's handle tables and continuations). *)
let test_second_hello_dropped () =
  skip_unless_sockets Unix.PF_UNIX;
  let tr, _dir = fresh_unix_fabric () in
  let got = ref [] in
  let connected = ref [] in
  Transport.on_conn_event tr (function
    | Transport.Connected { peer; _ } -> connected := peer :: !connected
    | Transport.Disconnected _ -> ());
  ignore (Transport.add_endpoint tr "b" ~handler:(fun ~src s -> got := (src, s) :: !got));
  let path =
    match Transport.listen_spec tr "b" with
    | Some p -> p
    | None -> Alcotest.fail "endpoint b has no listen spec"
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let hello addr = Framing.framed (fun w -> W.u8 w 0x48; W.raw w addr) in
  let data s =
    Framing.framed (fun w ->
        W.u8 w 0x44;
        W.u8 w (Stats.index Stats.Object_msg);
        W.f64 w 0.;
        W.raw w s)
  in
  let wire = hello "alice" ^ data "one" ^ hello "mallory" ^ data "two" in
  ignore (Unix.write_substring fd wire 0 (String.length wire));
  let ok =
    Transport.drive_until tr
      ~deadline_ms:(Transport.now_ms tr +. 10_000.)
      (fun () -> List.length !got = 2)
  in
  Unix.close fd;
  Transport.close tr;
  Alcotest.(check bool) "both data frames delivered" true ok;
  Alcotest.(check (list (pair string string)))
    "both attributed to the first hello"
    [ ("alice", "one"); ("alice", "two") ]
    (List.rev !got);
  Alcotest.(check (list string)) "one connection event" [ "alice" ] !connected;
  Alcotest.(check int) "second hello counted" 1 (Transport.integrity_drops tr)

(* A delivery handler that makes a synchronous call over the connection
   its frame came on, while later frames of that connection still wait
   in its decoder: the nested poll feeds the same decoder (growing it:
   the replies are large) and delivers the waiting frames itself. Frames
   are read in place, so this is where a view kept too long would show:
   every frame must arrive once, in order and undamaged. *)
let test_reentrant_delivery () =
  skip_unless_sockets Unix.PF_UNIX;
  let tr, _dir = fresh_unix_fabric () in
  let n = 40 in
  let body i = String.init (2000 + (97 * i)) (fun j -> Char.chr ((i * 31 + j) land 0xff)) in
  let seen = ref [] and damaged = ref 0 and replies = Hashtbl.create 8 in
  let srv = ref None and cli = ref None in
  let parse s = Scanf.sscanf s "%s@:%d:" (fun kind i -> (kind, i)) in
  srv :=
    Some
      (Transport.add_endpoint tr "srv" ~handler:(fun ~src s ->
           match parse s with
           | "data", i ->
               seen := i :: !seen;
               if not (String.equal s (Printf.sprintf "data:%d:%s" i (body i)))
               then incr damaged;
               if i mod 7 = 0 then begin
                 Option.iter
                   (fun ep ->
                     Transport.send ep ~dst:src ~category:Stats.Invoke_request
                       ~size:8 (Printf.sprintf "req:%d:" i))
                   !srv;
                 if
                   not
                     (Transport.drive_until tr
                        ~deadline_ms:(Transport.now_ms tr +. 10_000.)
                        (fun () -> Hashtbl.mem replies i))
                 then Alcotest.failf "call from frame %d got no reply" i
               end
           | "rep", i ->
               if String.equal s (Printf.sprintf "rep:%d:%s" i (body (i + 100)))
               then Hashtbl.replace replies i ()
               else incr damaged
           | _ -> incr damaged));
  cli :=
    Some
      (Transport.add_endpoint tr "cli" ~handler:(fun ~src s ->
           match (parse s, !cli) with
           | ("req", i), Some ep ->
               Transport.send ep ~dst:src ~category:Stats.Invoke_reply ~size:8
                 (Printf.sprintf "rep:%d:%s" i (body (i + 100)))
           | _ -> incr damaged));
  (match Transport.listen_spec tr "srv" with
  | Some spec -> Transport.register_remote tr "srv" spec
  | None -> Alcotest.fail "endpoint srv has no listen spec");
  (match !cli with
  | Some ep ->
      for i = 0 to n - 1 do
        Transport.send ep ~dst:"srv" ~category:Stats.Object_msg ~size:8
          (Printf.sprintf "data:%d:%s" i (body i))
      done
  | None -> ());
  let ok =
    Transport.drive_until tr
      ~deadline_ms:(Transport.now_ms tr +. 20_000.)
      (fun () -> List.length !seen >= n)
  in
  Transport.close tr;
  Alcotest.(check bool) "every frame delivered" true ok;
  Alcotest.(check (list int)) "once each, in order" (List.init n Fun.id)
    (List.rev !seen);
  Alcotest.(check int) "replies" ((n + 6) / 7) (Hashtbl.length replies);
  Alcotest.(check int) "no damaged frame" 0 !damaged

(* The remote-invoke wire per call: the argument envelope as XML both
   ways, and one framed [Invoke_request] built and read back in place.
   Every block here is small, so minor words are all there is. Through
   a tree and a copy per layer these cost 278, 564, 353 and 165 words;
   now 53, 101, 58 and 64. Ceilings: those plus 10 %. *)
let test_invoke_wire_alloc () =
  let module Env = Pti_serial.Envelope in
  let reg = Demo.fresh_registry [ Demo.news_assembly () ] in
  let home =
    Pti_cts.Eval.construct reg Demo.news_address
      [ Value.Vstring "Main St 1"; Value.Vstring "Springfield" ]
  in
  let args =
    Value.Varr
      { Value.elem_ty = Pti_cts.Ty.Named "object"; items = [| home |] }
  in
  let env =
    Env.make reg ~codec:Env.Binary
      ~download_path:(fun ~assembly -> "tcp://lender/" ^ assembly)
      args
  in
  let xml = Env.to_string env in
  let m =
    Message.Invoke_request { target = 0; meth = "setHome"; args = xml; token = 41 }
  in
  let frame = Stream.data_frame message_codec ~category:Stats.Invoke_request m in
  let dec = Framing.Decoder.create () in
  let receive () =
    Framing.Decoder.feed dec frame;
    match Framing.Decoder.next dec with
    | Framing.Decoder.Frame ->
        let r = Framing.Decoder.view dec in
        ignore (R.u8 r);
        ignore (R.u8 r);
        ignore (R.f64 r);
        Message_wire.read r
    | _ -> Error "no frame"
  in
  (match receive () with
  | Ok m' -> Alcotest.(check bool) "frame reads back" true (m = m')
  | Error e -> Alcotest.failf "frame: %s" e);
  Alloc.check_ceiling "Envelope.to_string, invocation arguments" ~ceiling:58.
    (fun () -> Env.to_string env);
  Alloc.check_ceiling "Envelope.of_string, invocation arguments" ~ceiling:111.
    (fun () -> Env.of_string xml);
  Alloc.check_ceiling "framed Invoke_request, send" ~ceiling:63. (fun () ->
      Stream.data_frame message_codec ~category:Stats.Invoke_request m);
  Alloc.check_ceiling "framed Invoke_request, receive" ~ceiling:70. receive

(* An idle poll with two endpoints and no connection. It used to
   rebuild its descriptor lists, a variant per endpoint and a closure
   per list walk every time: 70 words. What is left is select's own
   result and the boxed timeout: 19 words. Ceiling: that plus 10 %. *)
let test_idle_poll_alloc () =
  skip_unless_sockets Unix.PF_UNIX;
  let tr, _dir = fresh_unix_fabric () in
  ignore (Transport.add_endpoint tr "a" ~handler:(fun ~src:_ _ -> ()));
  ignore (Transport.add_endpoint tr "b" ~handler:(fun ~src:_ _ -> ()));
  Alloc.check_ceiling "idle Transport.poll" ~ceiling:20. (fun () ->
      Transport.poll tr ~timeout_ms:0.);
  Transport.close tr

let () =
  Random.self_init ();
  Alcotest.run "transport"
    [
      ( "stream-loopback",
        [
          Alcotest.test_case "unix exchange" `Quick
            (test_stream_loopback Transport.Unix_socket);
          Alcotest.test_case "tcp exchange" `Quick
            (test_stream_loopback Transport.Tcp);
          Alcotest.test_case "tcp request/reply without Nagle stalls" `Quick
            test_tcp_no_nagle_stall;
        ] );
      ( "stream-faults",
        [
          Alcotest.test_case "drop middleware" `Quick
            test_stream_fault_middleware;
          Alcotest.test_case "corruption + integrity" `Quick
            test_stream_corruption_and_integrity;
          Alcotest.test_case "partition + heal" `Quick
            test_stream_partition_heal;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "sim and unix count alike" `Quick
            test_cross_backend_parity;
          Alcotest.test_case "give-up charges lost per category" `Quick
            test_stream_give_up_lost_per_category;
        ] );
      ( "frame-wire",
        [
          QCheck_alcotest.to_alcotest prop_frames_match_original;
          Alcotest.test_case "second hello dropped" `Quick
            test_second_hello_dropped;
          Alcotest.test_case "re-entrant delivery" `Quick
            test_reentrant_delivery;
          Alcotest.test_case "invoke wire allocation gate" `Quick
            test_invoke_wire_alloc;
          Alcotest.test_case "idle poll allocation gate" `Quick
            test_idle_poll_alloc;
        ] );
      ( "two-process",
        [
          Alcotest.test_case "unix publish/conform/invoke" `Quick
            test_forked_unix_protocol;
        ] );
    ]
