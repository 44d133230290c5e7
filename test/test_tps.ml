(* Tests for type-based publish/subscribe with type interoperability. *)

open Pti_cts
module Peer = Pti_core.Peer
module Net = Pti_net.Net
module Transport = Pti_transport.Transport
module Stats = Pti_net.Stats
module Tps = Pti_tps.Tps
module Proxy = Pti_proxy.Dynamic_proxy
module Demo = Pti_demo.Demo_types

let setup () =
  let transport = Transport.of_net (Net.create ~seed:21L ()) in
  let domain = Tps.create ~transport ~broker:"broker" () in
  let pub = Peer.create ~transport "publisher" in
  Peer.publish_assembly pub (Demo.social_assembly ());
  (transport, domain, pub)

let get_string = function
  | Value.Vstring s -> s
  | v -> Alcotest.failf "expected string, got %s" (Value.type_name v)

let publish_event domain pub headline =
  let reg = Peer.registry pub in
  let author = Demo.make_social_person reg ~name:"Ann" ~age:33 in
  Tps.publish domain pub
    (Demo.make_social_event reg ~headline ~author ~priority:2)

let test_conformant_subscriber_receives () =
  let transport, domain, pub = setup () in
  let sub_peer = Peer.create ~transport "sub1" in
  Peer.publish_assembly sub_peer (Demo.news_assembly ());
  let seen = ref [] in
  let sub =
    Tps.subscribe domain sub_peer ~interest:Demo.news_event
      ~handler:(fun ~from:_ v -> seen := v :: !seen)
      ()
  in
  publish_event domain pub "Peace declared";
  Tps.run domain;
  Alcotest.(check int) "one delivery" 1 (List.length (Tps.deliveries sub));
  match !seen with
  | [ v ] ->
      Alcotest.(check string) "subscriber vocabulary works" "Peace declared"
        (Pti_cts.Eval.call (Peer.registry sub_peer) v "getHeadline" []
        |> get_string)
  | _ -> Alcotest.fail "handler did not fire exactly once"

let test_non_conformant_subscriber_ignored () =
  let transport, domain, pub = setup () in
  let sub_peer = Peer.create ~transport "sub1" in
  (* This subscriber only knows printers; a news event must not match. *)
  Peer.publish_assembly sub_peer (Demo.printsvc_assembly ());
  let sub =
    Tps.subscribe domain sub_peer ~interest:Demo.printsvc
      ~handler:(fun ~from:_ _ ->
        Alcotest.fail "printer subscriber got a news event")
      ()
  in
  publish_event domain pub "Not for you";
  Tps.run domain;
  Alcotest.(check int) "no deliveries" 0 (List.length (Tps.deliveries sub));
  (* And it never downloaded the event code. *)
  let s = Transport.stats transport in
  Alcotest.(check int) "no code transfer" 0 (Stats.messages s Stats.Asm_request)

let test_multiple_subscribers_mixed () =
  let transport, domain, pub = setup () in
  let s1 = Peer.create ~transport "s1" in
  Peer.publish_assembly s1 (Demo.news_assembly ());
  let s2 = Peer.create ~transport "s2" in
  Peer.publish_assembly s2 (Demo.news_assembly ());
  let s3 = Peer.create ~transport "s3" in
  Peer.publish_assembly s3 (Demo.printsvc_assembly ());
  let sub1 = Tps.subscribe domain s1 ~interest:Demo.news_event () in
  let sub2 = Tps.subscribe domain s2 ~interest:Demo.news_event () in
  let sub3 = Tps.subscribe domain s3 ~interest:Demo.printsvc () in
  publish_event domain pub "Fan out";
  Tps.run domain;
  Alcotest.(check int) "sub1 got it" 1 (List.length (Tps.deliveries sub1));
  Alcotest.(check int) "sub2 got it" 1 (List.length (Tps.deliveries sub2));
  Alcotest.(check int) "sub3 did not" 0 (List.length (Tps.deliveries sub3))

let test_publisher_is_not_self_delivered () =
  let _, domain, pub = setup () in
  (* The publisher also subscribes (to its own native type). *)
  let own =
    Tps.subscribe domain pub ~interest:Demo.social_event ()
  in
  publish_event domain pub "Echo?";
  Tps.run domain;
  Alcotest.(check int) "no self delivery" 0 (List.length (Tps.deliveries own))

let test_stream_of_events_amortizes_code_download () =
  let transport, domain, pub = setup () in
  let sub_peer = Peer.create ~transport "s1" in
  Peer.publish_assembly sub_peer (Demo.news_assembly ());
  let sub = Tps.subscribe domain sub_peer ~interest:Demo.news_event () in
  for i = 1 to 10 do
    publish_event domain pub (Printf.sprintf "event %d" i);
    Tps.run domain
  done;
  Alcotest.(check int) "all delivered" 10 (List.length (Tps.deliveries sub));
  let s = Transport.stats transport in
  (* Code and descriptions were fetched once, not per event. *)
  Alcotest.(check int) "one assembly fetch" 1
    (Stats.messages s Stats.Asm_request);
  Alcotest.(check bool) "few tdesc fetches" true
    (Stats.messages s Stats.Tdesc_request <= 6)

let test_deliveries_record_source () =
  let transport, domain, pub = setup () in
  let sub_peer = Peer.create ~transport "s1" in
  Peer.publish_assembly sub_peer (Demo.news_assembly ());
  let sub = Tps.subscribe domain sub_peer ~interest:Demo.news_event () in
  publish_event domain pub "Origin";
  Tps.run domain;
  match Tps.deliveries sub with
  | [ (from, _) ] -> Alcotest.(check string) "source" "publisher" from
  | _ -> Alcotest.fail "expected one delivery"

let test_unsubscribe () =
  let transport, domain, pub = setup () in
  let sub_peer = Peer.create ~transport "s1" in
  Peer.publish_assembly sub_peer (Demo.news_assembly ());
  let sub = Tps.subscribe domain sub_peer ~interest:Demo.news_event () in
  publish_event domain pub "before";
  Tps.run domain;
  Alcotest.(check int) "received before" 1 (List.length (Tps.deliveries sub));
  Tps.unsubscribe domain sub;
  Alcotest.(check int) "no longer listed" 0
    (List.length (Tps.subscriptions domain));
  publish_event domain pub "after";
  Tps.run domain;
  Alcotest.(check int) "nothing after unsubscribe" 1
    (List.length (Tps.deliveries sub));
  (* Idempotent. *)
  Tps.unsubscribe domain sub

let () =
  Alcotest.run "tps"
    [
      ( "matching",
        [
          Alcotest.test_case "conformant subscriber receives" `Quick
            test_conformant_subscriber_receives;
          Alcotest.test_case "non-conformant ignored" `Quick
            test_non_conformant_subscriber_ignored;
          Alcotest.test_case "mixed subscribers" `Quick
            test_multiple_subscribers_mixed;
          Alcotest.test_case "no self delivery" `Quick
            test_publisher_is_not_self_delivered;
          Alcotest.test_case "unsubscribe" `Quick test_unsubscribe;
        ] );
      ( "economics",
        [
          Alcotest.test_case "code download amortized" `Quick
            test_stream_of_events_amortizes_code_download;
          Alcotest.test_case "delivery records source" `Quick
            test_deliveries_record_source;
        ] );
    ]
