(* Two languages, one type system, one wire.

   The paper's scenario at full stretch: a Person type written in the
   VB-flavoured definition language on one host, another Person written in
   the C#-flavoured one on the other, different namespaces and GUIDs —
   exchanged by value over the network and used through each side's own
   vocabulary.

   Run with:  dune exec examples/two_languages.exe *)

open Pti_cts
module Peer = Pti_core.Peer
module Transport = Pti_transport.Transport
module Idl = Pti_idl.Idl
module Vbdl = Pti_idl.Vbdl

let vb_source =
  {|
Assembly "vb-people"
Namespace vbw

Class Person
  Dim name As String
  Dim age As Integer

  Sub New(n As String, a As Integer)
    name = n
    age = a
  End Sub

  Function getName() As String
    Return name
  End Function

  Sub setName(v As String)
    name = v
  End Sub

  Function getAge() As Integer
    Return age
  End Function

  Sub setAge(v As Integer)
    age = v
  End Sub

  Function greet() As String
    Return "G'day, " & name
  End Function
End Class
|}

let cs_source =
  {|
assembly "cs-people";
namespace csw;

class person {
  field age : int;
  field name : string;
  ctor(a : int, n : string) { age = a; name = n; }
  method GETNAME() : string { return name; }
  method SETNAME(v : string) : void { name = v; }
  method getage() : int { return age; }
  method setage(v : int) : void { age = v; }
  method GREET() : string { return "G'day, " ^ name; }
}
|}

let str = function Value.Vstring s -> s | _ -> assert false

let () =
  let vb_asm =
    match Vbdl.parse_assembly vb_source with
    | Ok a -> a
    | Error e ->
        Format.printf "VB error: %a@." Vbdl.pp_error e;
        exit 1
  in
  let cs_asm =
    match Idl.parse_assembly cs_source with
    | Ok a -> a
    | Error e ->
        Format.printf "C# error: %a@." Idl.pp_error e;
        exit 1
  in

  let transport = Transport.of_net (Pti_net.Net.create ()) in
  let vb_host = Peer.create ~transport "vb-host" in
  Peer.publish_assembly vb_host vb_asm;
  let cs_host = Peer.create ~transport "cs-host" in
  Peer.publish_assembly cs_host cs_asm;

  (* Each host only understands its own language's Person. *)
  Peer.register_interest cs_host ~interest:"csw.person" (fun ~from v ->
      let reg = Peer.registry cs_host in
      Printf.printf "[cs-host] got %s from %s; GREET() = %S\n"
        (Value.type_name v) from
        (str (Eval.call reg v "GREET" [])));
  Peer.register_interest vb_host ~interest:"vbw.Person" (fun ~from v ->
      let reg = Peer.registry vb_host in
      Printf.printf "[vb-host] got %s from %s; greet() = %S\n"
        (Value.type_name v) from
        (str (Eval.call reg v "greet" [])));

  (* VB -> C# ... *)
  let vb_person =
    Eval.construct (Peer.registry vb_host) "vbw.Person"
      [ Value.Vstring "Vera"; Value.Vint 41 ]
  in
  Peer.send_value vb_host ~dst:"cs-host" vb_person;
  Transport.run transport;

  (* ... and C# -> VB. *)
  let cs_person =
    Eval.construct (Peer.registry cs_host) "csw.person"
      [ Value.Vint 33; Value.Vstring "Carl" ]
  in
  Peer.send_value cs_host ~dst:"vb-host" cs_person;
  Transport.run transport;

  print_endline
    "\nBoth directions conform: two programmers, two languages, two GUIDs,\n\
     one logical Person module."
