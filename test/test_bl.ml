(* Tests for the borrow/lend abstraction with conformance criteria. *)

open Pti_cts
module Peer = Pti_core.Peer
module Net = Pti_net.Net
module Transport = Pti_transport.Transport
module Bl = Pti_bl.Borrow_lend
module Proxy = Pti_proxy.Dynamic_proxy
module Demo = Pti_demo.Demo_types

let get_int = function
  | Value.Vint i -> i
  | v -> Alcotest.failf "expected int, got %s" (Value.type_name v)

let setup () =
  let transport = Transport.of_net (Net.create ~seed:5L ()) in
  let lender = Peer.create ~transport "lender" in
  Peer.publish_assembly lender (Demo.printer_assembly ());
  let borrower = Peer.create ~transport "borrower" in
  Peer.publish_assembly borrower (Demo.printsvc_assembly ());
  let market = Bl.create () in
  (transport, market, lender, borrower)

let test_borrow_conformant_resource () =
  let _transport, market, lender, borrower = setup () in
  let printer = Demo.make_printer (Peer.registry lender) ~label:"laser" in
  let _lending = Bl.lend market lender printer in
  match Bl.borrow market borrower ~interest:Demo.printsvc with
  | Error e -> Alcotest.failf "borrow failed: %a" Bl.pp_borrow_error e
  | Ok (proxy, lease) ->
      Alcotest.(check int) "borrowed count" 1 (Bl.lease_lending lease).Bl.borrowed;
      (* The borrower prints through its own vocabulary. *)
      let n =
        Eval.call (Peer.registry borrower) proxy "PRINT"
          [ Value.Vstring "report.pdf" ]
        |> get_int
      in
      Alcotest.(check int) "printed one" 1 n;
      (* Effect happened on the lender's object. *)
      Alcotest.(check int) "lender sees state" 1
        (Eval.call (Peer.registry lender) printer "getPrinted" [] |> get_int);
      Bl.return_resource market lease;
      Alcotest.(check int) "lease released" 0
        (Bl.lease_lending lease).Bl.borrowed;
      Alcotest.(check bool) "inactive" false (Bl.lease_active lease)

let test_capacity_enforced () =
  let _transport, market, lender, borrower = setup () in
  let printer = Demo.make_printer (Peer.registry lender) ~label:"inkjet" in
  ignore (Bl.lend market lender ~capacity:1 printer);
  (match Bl.borrow market borrower ~interest:Demo.printsvc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first borrow failed: %a" Bl.pp_borrow_error e);
  match Bl.borrow market borrower ~interest:Demo.printsvc with
  | Error Bl.Exhausted -> ()
  | Error e -> Alcotest.failf "expected Exhausted, got %a" Bl.pp_borrow_error e
  | Ok _ -> Alcotest.fail "capacity not enforced"

let test_return_frees_capacity () =
  let _transport, market, lender, borrower = setup () in
  let printer = Demo.make_printer (Peer.registry lender) ~label:"x" in
  ignore (Bl.lend market lender ~capacity:1 printer);
  let lease =
    match Bl.borrow market borrower ~interest:Demo.printsvc with
    | Ok (_, l) -> l
    | Error _ -> Alcotest.fail "borrow failed"
  in
  Bl.return_resource market lease;
  match Bl.borrow market borrower ~interest:Demo.printsvc with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "borrow after return failed"

let test_no_conformant_resource () =
  let transport = Transport.of_net (Net.create ~seed:6L ()) in
  let lender = Peer.create ~transport "lender" in
  Peer.publish_assembly lender (Demo.trap_assembly ());
  let borrower = Peer.create ~transport "borrower" in
  Peer.publish_assembly borrower (Demo.printsvc_assembly ());
  let market = Bl.create () in
  let trap = Demo.make_trap_person (Peer.registry lender) in
  ignore (Bl.lend market lender trap);
  match Bl.borrow market borrower ~interest:Demo.printsvc with
  | Error (Bl.No_conformant_resource reasons) ->
      Alcotest.(check int) "one reason per listing" 1 (List.length reasons)
  | Error Bl.Exhausted -> Alcotest.fail "should be non-conformant, not exhausted"
  | Ok _ -> Alcotest.fail "trap should not satisfy a printer interest"

let test_picks_first_conformant_among_mixed () =
  let transport = Transport.of_net (Net.create ~seed:8L ()) in
  let l1 = Peer.create ~transport "l1" in
  Peer.publish_assembly l1 (Demo.trap_assembly ());
  let l2 = Peer.create ~transport "l2" in
  Peer.publish_assembly l2 (Demo.printer_assembly ());
  let borrower = Peer.create ~transport "borrower" in
  Peer.publish_assembly borrower (Demo.printsvc_assembly ());
  let market = Bl.create () in
  ignore (Bl.lend market l1 (Demo.make_trap_person (Peer.registry l1)));
  ignore
    (Bl.lend market l2 (Demo.make_printer (Peer.registry l2) ~label:"ok"));
  match Bl.borrow market borrower ~interest:Demo.printsvc with
  | Ok (_, lease) ->
      Alcotest.(check string) "matched the printer lender" "l2"
        (Bl.lease_lending lease).Bl.resource.Peer.rr_host
  | Error e -> Alcotest.failf "borrow failed: %a" Bl.pp_borrow_error e

let test_unlend_removes_listing () =
  let _transport, market, lender, borrower = setup () in
  let printer = Demo.make_printer (Peer.registry lender) ~label:"gone" in
  let lending = Bl.lend market lender printer in
  Alcotest.(check int) "listed" 1 (List.length (Bl.lendings market));
  Bl.unlend market lending;
  Alcotest.(check int) "unlisted" 0 (List.length (Bl.lendings market));
  match Bl.borrow market borrower ~interest:Demo.printsvc with
  | Error (Bl.No_conformant_resource []) -> ()
  | Error _ | Ok _ -> Alcotest.fail "empty market should have no reasons"

let test_two_borrowers_share_state () =
  let transport, market, lender, borrower = setup () in
  let borrower2 = Peer.create ~transport "borrower2" in
  Peer.publish_assembly borrower2 (Demo.printer_assembly ());
  let printer = Demo.make_printer (Peer.registry lender) ~label:"shared" in
  ignore (Bl.lend market lender ~capacity:2 printer);
  let p1 =
    match Bl.borrow market borrower ~interest:Demo.printsvc with
    | Ok (p, _) -> p
    | Error _ -> Alcotest.fail "b1 failed"
  in
  let p2 =
    match Bl.borrow market borrower2 ~interest:Demo.printer with
    | Ok (p, _) -> p
    | Error _ -> Alcotest.fail "b2 failed"
  in
  ignore (Eval.call (Peer.registry borrower) p1 "PRINT" [ Value.Vstring "a" ]);
  let n =
    Eval.call (Peer.registry borrower2) p2 "print" [ Value.Vstring "b" ]
    |> get_int
  in
  Alcotest.(check int) "both borrowers hit the same object" 2 n

let test_lease_expiry () =
  let transport, market, lender, borrower = setup () in
  let printer = Demo.make_printer (Peer.registry lender) ~label:"timed" in
  let lending = Bl.lend market lender ~capacity:1 printer in
  let lease =
    match Bl.borrow ~lease_ms:100. market borrower ~interest:Demo.printsvc with
    | Ok (_, l) -> l
    | Error e -> Alcotest.failf "borrow failed: %a" Bl.pp_borrow_error e
  in
  Alcotest.(check bool) "active" true (Bl.lease_active lease);
  Alcotest.(check int) "held" 1 lending.Bl.borrowed;
  (* Advance simulated time past the lease. *)
  Pti_net.Sim.run_until
    (Net.sim (Option.get (Transport.sim_net transport)))
    1_000.;
  Alcotest.(check bool) "expired" false (Bl.lease_active lease);
  Alcotest.(check int) "capacity freed" 0 lending.Bl.borrowed;
  (* Returning after expiry is a harmless no-op. *)
  Bl.return_resource market lease;
  Alcotest.(check int) "still zero" 0 lending.Bl.borrowed

let test_double_return_idempotent () =
  let _transport, market, lender, borrower = setup () in
  let printer = Demo.make_printer (Peer.registry lender) ~label:"dbl" in
  let lending = Bl.lend market lender ~capacity:1 printer in
  (match Bl.borrow market borrower ~interest:Demo.printsvc with
  | Ok (_, lease) ->
      Bl.return_resource market lease;
      Bl.return_resource market lease
  | Error _ -> Alcotest.fail "borrow failed");
  Alcotest.(check int) "not negative" 0 lending.Bl.borrowed

let () =
  Alcotest.run "borrow-lend"
    [
      ( "market",
        [
          Alcotest.test_case "borrow conformant resource" `Quick
            test_borrow_conformant_resource;
          Alcotest.test_case "lease expiry" `Quick test_lease_expiry;
          Alcotest.test_case "double return idempotent" `Quick
            test_double_return_idempotent;
          Alcotest.test_case "capacity enforced" `Quick test_capacity_enforced;
          Alcotest.test_case "return frees capacity" `Quick
            test_return_frees_capacity;
          Alcotest.test_case "no conformant resource" `Quick
            test_no_conformant_resource;
          Alcotest.test_case "first conformant among mixed" `Quick
            test_picks_first_conformant_among_mixed;
          Alcotest.test_case "unlend" `Quick test_unlend_removes_listing;
          Alcotest.test_case "two borrowers share state" `Quick
            test_two_borrowers_share_state;
        ] );
    ]
