(* Watch the optimistic protocol happen: a message trace of the §3.1
   quickstart scenario, rendered as the sequence chart of Figure 1.

   Run with:  dune exec examples/protocol_trace.exe *)

module Peer = Pti_core.Peer
module Net = Pti_net.Net
module Trace = Pti_net.Trace
module Demo = Pti_demo.Demo_types

let () =
  let net = Net.create () in
  let trace = Trace.attach net in
  let transport = Pti_transport.Transport.of_net net in
  let sender = Peer.create ~transport "sender" in
  let receiver = Peer.create ~transport "receiver" in
  Peer.publish_assembly sender (Demo.social_assembly ());
  Peer.publish_assembly receiver (Demo.news_assembly ());
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> ());

  print_endline "=== first object of a never-seen type (Figure 1 in full) ===";
  Peer.send_value sender ~dst:"receiver"
    (Demo.make_social_person (Peer.registry sender) ~name:"Alice" ~age:30);
  Net.run net;
  Format.printf "%a@." Trace.pp_sequence trace;
  let first_count = Trace.count trace () in

  Trace.clear trace;
  print_endline "=== second object of the same type (fast path) ===";
  Peer.send_value sender ~dst:"receiver"
    (Demo.make_social_person (Peer.registry sender) ~name:"Bob" ~age:31);
  Net.run net;
  Format.printf "%a@." Trace.pp_sequence trace;

  Printf.printf
    "first object: %d messages; second: everything was cached, %d message(s)\n"
    first_count (Trace.count trace ())
