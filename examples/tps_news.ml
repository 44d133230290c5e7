(* Type-based publish/subscribe with interoperable event types (§8).

   A news agency publishes events of its own NewsEvent type. Subscribers
   written by other teams — with their own structurally conformant event
   types — receive them transparently; a telemetry subscriber with an
   unrelated interest type never even downloads the event code.

   Run with:  dune exec examples/tps_news.exe *)

open Pti_cts
module Peer = Pti_core.Peer
module Transport = Pti_transport.Transport
module Stats = Pti_net.Stats
module Tps = Pti_tps.Tps
module Demo = Pti_demo.Demo_types

let str v = match v with Value.Vstring s -> s | _ -> assert false

let () =
  let transport = Transport.of_net (Pti_net.Net.create ~default_latency_ms:2.0 ()) in
  let domain = Tps.create ~transport ~broker:"broker" () in

  (* The agency publishes events using the "social" team's types. *)
  let agency = Peer.create ~transport "agency" in
  Peer.publish_assembly agency (Demo.social_assembly ());

  (* Subscriber 1: the "news" team — conformant but different types. *)
  let newsroom = Peer.create ~transport "newsroom" in
  Peer.publish_assembly newsroom (Demo.news_assembly ());
  let newsroom_sub =
    Tps.subscribe domain newsroom ~interest:Demo.news_event
      ~handler:(fun ~from:_ ev ->
        let reg = Peer.registry newsroom in
        Printf.printf "[newsroom] %s\n"
          (str (Eval.call reg ev "summary" [])))
      ()
  in

  (* Subscriber 2: a telemetry service interested only in printers. *)
  let telemetry = Peer.create ~transport "telemetry" in
  Peer.publish_assembly telemetry (Demo.printsvc_assembly ());
  let telemetry_sub =
    Tps.subscribe domain telemetry ~interest:Demo.printsvc ()
  in

  (* Publish a stream of events. *)
  let reg = Peer.registry agency in
  let reporters =
    [ ("Iris", 29); ("Jon", 45); ("Kay", 38) ]
    |> List.map (fun (name, age) -> Demo.make_social_person reg ~name ~age)
  in
  List.iteri
    (fun i author ->
      let ev =
        Demo.make_social_event reg
          ~headline:(Printf.sprintf "Dispatch #%d" (i + 1))
          ~author ~priority:i
      in
      Tps.publish domain agency ev;
      Tps.run domain)
    reporters;

  Printf.printf "\nnewsroom deliveries:  %d\n"
    (List.length (Tps.deliveries newsroom_sub));
  Printf.printf "telemetry deliveries: %d (its interest never matched)\n"
    (List.length (Tps.deliveries telemetry_sub));

  let s = Transport.stats transport in
  Printf.printf "\nassembly downloads: %d (code fetched once, then cached)\n"
    (Stats.messages s Stats.Asm_request);
  Printf.printf "wire traffic:\n%s\n" (Format.asprintf "%a" Stats.pp s)
