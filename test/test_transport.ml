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

let string_codec =
  {
    Transport.c_encode = (fun s -> s);
    c_decode =
      (fun s ->
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
      ( "two-process",
        [
          Alcotest.test_case "unix publish/conform/invoke" `Quick
            test_forked_unix_protocol;
        ] );
    ]
