(* Polyglot modules: one logical Person module, four independent authors.

   - socialw.person : structurally conformant (case, ordering, permuted
     constructor) -> accepted and proxied;
   - bogusw.Person  : missing members -> rejected before code download;
   - typow.Persom   : structurally fine, name one edit away -> rejected by
     the strict rules, accepted by a receiver configured with the paper's
     suggested Levenshtein relaxation;
   - trapw.Person   : right name, alien structure -> rejected by the full
     rules (and exactly what the weak name-only rule would let through).

   Run with:  dune exec examples/polyglot.exe *)

open Pti_cts
module Peer = Pti_core.Peer
module Transport = Pti_transport.Transport
module Config = Pti_conformance.Config
module Demo = Pti_demo.Demo_types

let send_person transport sender_name assembly make =
  let sender = Peer.create ~transport sender_name in
  Peer.publish_assembly sender assembly;
  let v = make (Peer.registry sender) in
  (sender, v)

let report peer =
  List.iter
    (fun ev -> Format.printf "  %a@." Peer.pp_event ev)
    (Peer.events peer);
  Peer.clear_events peer

let () =
  let transport = Transport.of_net (Pti_net.Net.create ()) in

  (* Receiver A: strict, the paper's published rules. *)
  let strict = Peer.create ~transport "strict-receiver" in
  Peer.publish_assembly strict (Demo.news_assembly ());
  Peer.register_interest strict ~interest:Demo.news_person
    (fun ~from:_ _ -> ());

  (* Receiver B: Levenshtein threshold 1 (§4.2's "one could be more
     general" knob). *)
  let relaxed =
    let shared = Peer.create_shared ~config:(Config.relaxed ~distance:1) () in
    Peer.create ~transport ~shared "relaxed-receiver"
  in
  Peer.publish_assembly relaxed (Demo.news_assembly ());
  Peer.register_interest relaxed ~interest:Demo.news_person
    (fun ~from:_ _ -> ());

  let senders =
    [
      ( "social-author", Demo.social_assembly (),
        fun reg -> Demo.make_social_person reg ~name:"Sue" ~age:1 );
      ( "bogus-author", Demo.bogus_assembly (),
        fun reg ->
          Eval.construct reg Demo.bogus_person [ Value.Vstring "Bo" ] );
      ( "typo-author", Demo.typo_assembly (),
        fun reg ->
          Eval.construct reg Demo.typo_person
            [ Value.Vstring "Ty"; Value.Vint 2 ] );
      ( "trap-author", Demo.trap_assembly (),
        fun reg -> Demo.make_trap_person reg );
    ]
  in

  List.iter
    (fun (name, assembly, make) ->
      let sender, v = send_person transport name assembly make in
      Printf.printf "\n%s ships a %s\n" name (Value.type_name v);
      Peer.send_value sender ~dst:"strict-receiver" v;
      Peer.send_value sender ~dst:"relaxed-receiver" v;
      Transport.run transport;
      Printf.printf " strict receiver:\n";
      report strict;
      Printf.printf " relaxed receiver:\n";
      report relaxed)
    senders;

  print_newline ();
  print_endline
    "Note how typow.Persom flips from rejected to delivered under the \
     relaxed name rule, while bogusw/trapw stay rejected: the structural \
     aspects, not the name, are what guarantee safety."
