(* The whole system in one scenario: a resource marketplace over a lossy
   WAN.

   - Four organisations, each with its own independently authored types
     (news / social / printer / print-service worlds).
   - Publish/subscribe: the wire agency publishes events; the newsroom
     (different event type) receives them, telemetry (printer types) never
     matches and never downloads event code.
   - Borrow/lend: the lab lends its printer; the newsroom borrows it
     through its own printer vocabulary and prints every received story.
   - The WAN loses 10% of packets; the ARQ layer keeps the protocol
     complete, at a visible byte/latency cost.

   Run with:  dune exec examples/marketplace.exe *)

open Pti_cts
module Peer = Pti_core.Peer
module Transport = Pti_transport.Transport
module Stats = Pti_net.Stats
module Tps = Pti_tps.Tps
module Bl = Pti_bl.Borrow_lend
module Demo = Pti_demo.Demo_types

let str v = match v with Value.Vstring s -> s | _ -> assert false
let int_of v = match v with Value.Vint i -> i | _ -> assert false

let () =
  let transport =
    Transport.of_net (Pti_net.Net.create ~default_latency_ms:5. ~drop_rate:0.10
      ~reliability:Pti_net.Net.default_reliability ~seed:7L ())
  in

  (* Organisations. *)
  let agency = Peer.create ~transport "agency" in
  Peer.publish_assembly agency (Demo.social_assembly ());
  let newsroom = Peer.create ~transport "newsroom" in
  Peer.publish_assembly newsroom (Demo.news_assembly ());
  Peer.publish_assembly newsroom (Demo.printsvc_assembly ());
  let lab = Peer.create ~transport "lab" in
  Peer.publish_assembly lab (Demo.printer_assembly ());
  let telemetry = Peer.create ~transport "telemetry" in
  Peer.publish_assembly telemetry (Demo.printsvc_assembly ());

  (* The lab lends its printer. *)
  let market = Bl.create () in
  let lab_printer = Demo.make_printer (Peer.registry lab) ~label:"lab-laser" in
  ignore (Bl.lend market lab ~capacity:4 lab_printer);

  (* The newsroom borrows it through its own vocabulary... *)
  let printer_proxy =
    match Bl.borrow market newsroom ~interest:Demo.printsvc with
    | Ok (proxy, _) -> proxy
    | Error e ->
        Format.printf "borrow failed: %a@." Bl.pp_borrow_error e;
        exit 1
  in

  (* ...and prints every story it receives from the agency. *)
  let domain = Tps.create ~transport ~broker:"broker" () in
  let printed = ref [] in
  let _newsroom_sub =
    Tps.subscribe domain newsroom ~interest:Demo.news_event
      ~handler:(fun ~from:_ ev ->
        let reg = Peer.registry newsroom in
        let headline = str (Eval.call reg ev "getHeadline" []) in
        let job =
          int_of (Eval.call reg printer_proxy "PRINT" [ Value.Vstring headline ])
        in
        printed := (headline, job) :: !printed)
      ()
  in
  let telemetry_sub =
    Tps.subscribe domain telemetry ~interest:Demo.printsvc ()
  in

  let reg = Peer.registry agency in
  List.iteri
    (fun i (headline, author, age) ->
      let author = Demo.make_social_person reg ~name:author ~age in
      Tps.publish domain agency
        (Demo.make_social_event reg ~headline ~author ~priority:i);
      Tps.run domain)
    [
      ("Storm over the lake", "Iris", 29);
      ("Council adopts budget", "Jon", 45);
      ("Machine types unified at runtime", "Kay", 38);
    ];

  print_endline "printed stories (newsroom vocabulary over lab hardware):";
  List.iter
    (fun (headline, job) -> Printf.printf "  job #%d: %s\n" job headline)
    (List.rev !printed);
  Printf.printf "\nlab-side printer counter: %d\n"
    (int_of (Eval.call (Peer.registry lab) lab_printer "getPrinted" []));
  Printf.printf "telemetry deliveries: %d (never matched, never downloaded)\n"
    (List.length (Tps.deliveries telemetry_sub));
  Printf.printf
    "\nWAN conditions: %d attempts dropped, %d retransmissions, %d lost\n"
    (Transport.dropped_messages transport)
    (Transport.retransmissions transport)
    (Transport.lost_messages transport);
  let stats = Format.asprintf "%a" Stats.pp (Transport.stats transport) in
  Printf.printf "wire traffic:\n%s\n" stats
