(* The borrow/lend abstraction with a conformance criterion (§8).

   A lab lends its Printer. A visiting laptop knows printers only through
   its own svcw.printer type; the borrow request is matched by implicit
   structural conformance, and invocations travel pass-by-reference to the
   lender's object.

   Run with:  dune exec examples/borrow_lend.exe *)

open Pti_cts
module Peer = Pti_core.Peer
module Transport = Pti_transport.Transport
module Bl = Pti_bl.Borrow_lend
module Demo = Pti_demo.Demo_types

let int_of v = match v with Value.Vint i -> i | _ -> assert false
let str v = match v with Value.Vstring s -> s | _ -> assert false

let () =
  let transport = Transport.of_net (Pti_net.Net.create ~default_latency_ms:3.0 ()) in
  let lab = Peer.create ~transport "lab" in
  Peer.publish_assembly lab (Demo.printer_assembly ());
  let laptop = Peer.create ~transport "laptop" in
  Peer.publish_assembly laptop (Demo.printsvc_assembly ());

  let market = Bl.create () in
  let printer = Demo.make_printer (Peer.registry lab) ~label:"lab-laser" in
  let _listing = Bl.lend market lab ~capacity:2 printer in
  Printf.printf "lab lends a %s\n" (Value.type_name printer);

  match Bl.borrow market laptop ~interest:Demo.printsvc with
  | Error e ->
      Format.printf "borrow failed: %a@." Bl.pp_borrow_error e
  | Ok (proxy, lease) ->
      Printf.printf "laptop borrowed it as %s\n" (Value.type_name proxy);
      let reg = Peer.registry laptop in
      (* The laptop speaks its own vocabulary: PRINT / STATUS. *)
      List.iter
        (fun doc ->
          let n = int_of (Eval.call reg proxy "PRINT" [ Value.Vstring doc ]) in
          Printf.printf "  printed %S (job #%d)\n" doc n)
        [ "thesis.pdf"; "poster.svg"; "slides.key" ];
      Printf.printf "  remote STATUS() = %S\n"
        (str (Eval.call reg proxy "STATUS" []));
      (* The state lives on the lender. *)
      Printf.printf "lab-side counter: %d\n"
        (int_of (Eval.call (Peer.registry lab) printer "getPrinted" []));
      Bl.return_resource market lease;
      Printf.printf "lease returned; simulated time %.2f ms\n"
        (Transport.now_ms transport)
