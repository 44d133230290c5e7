(* Quickstart: the Person scenario of §3.1.

   Two programmers implemented "the same" Person type independently —
   different namespaces, method-name capitalisation, constructor argument
   order, GUIDs. A sender ships its person by value; the receiver, which
   only knows its own Person type, gets a usable object anyway.

   Run with:  dune exec examples/quickstart.exe *)

open Pti_cts
module Peer = Pti_core.Peer
module Transport = Pti_transport.Transport
module Stats = Pti_net.Stats
module Demo = Pti_demo.Demo_types

let () =
  (* A tiny simulated LAN. *)
  let transport = Transport.of_net (Pti_net.Net.create ~default_latency_ms:1.0 ()) in
  let sender = Peer.create ~transport "sender" in
  let receiver = Peer.create ~transport "receiver" in

  (* Each peer loads only its own programmer's code. *)
  Peer.publish_assembly sender (Demo.social_assembly ());
  Peer.publish_assembly receiver (Demo.news_assembly ());

  (* The receiver declares its type of interest: ITS OWN Person type. *)
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from person ->
      let reg = Peer.registry receiver in
      let name =
        match Eval.call reg person "getName" [] with
        | Value.Vstring s -> s
        | _ -> assert false
      in
      let greeting =
        match Eval.call reg person "greet" [] with
        | Value.Vstring s -> s
        | _ -> assert false
      in
      Printf.printf "receiver got a %s from %s\n"
        (Value.type_name person) from;
      Printf.printf "  getName()  = %S\n" name;
      Printf.printf "  greet()    = %S\n" greeting);

  (* The sender ships an instance of its own, different Person type. *)
  let alice =
    Demo.make_social_person (Peer.registry sender) ~name:"Alice" ~age:30
  in
  Printf.printf "sender ships a %s\n" (Value.type_name alice);
  Peer.send_value sender ~dst:"receiver" alice;

  (* Let the simulation run the whole Figure-1 protocol. *)
  Transport.run transport;

  Printf.printf "\nwire traffic:\n%s\n"
    (Format.asprintf "%a" Stats.pp (Transport.stats transport));
  Printf.printf "\nsimulated completion time: %.2f ms\n" (Transport.now_ms transport)
