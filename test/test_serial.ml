(* Tests for the serialization stack: binary, SOAP, assembly codec,
   hybrid envelope. *)

open Pti_cts
module Demo = Pti_demo.Demo_types
module Bin = Pti_serial.Bin_ser
module Soap = Pti_serial.Soap_ser
module Env = Pti_serial.Envelope
module Axml = Pti_serial.Assembly_xml
module Bio = Pti_serial.Bytes_io
module Xml = Pti_xml.Xml
module E = Expr

let reg () =
  Demo.fresh_registry [ Demo.news_assembly (); Demo.social_assembly () ]

(* ----------------------------- bytes_io ---------------------------- *)

let test_bytes_io_roundtrip () =
  let w = Bio.Writer.create () in
  Bio.Writer.varint w 0;
  Bio.Writer.varint w 127;
  Bio.Writer.varint w 128;
  Bio.Writer.varint w 300_000;
  Bio.Writer.zigzag w (-1);
  Bio.Writer.zigzag w 12345;
  Bio.Writer.zigzag w (-99999);
  Bio.Writer.f64 w 3.14159;
  Bio.Writer.string w "hello";
  Bio.Writer.bool w true;
  let r = Bio.Reader.create (Bio.Writer.contents w) in
  Alcotest.(check int) "v0" 0 (Bio.Reader.varint r);
  Alcotest.(check int) "v127" 127 (Bio.Reader.varint r);
  Alcotest.(check int) "v128" 128 (Bio.Reader.varint r);
  Alcotest.(check int) "v300k" 300_000 (Bio.Reader.varint r);
  Alcotest.(check int) "z-1" (-1) (Bio.Reader.zigzag r);
  Alcotest.(check int) "z12345" 12345 (Bio.Reader.zigzag r);
  Alcotest.(check int) "z-99999" (-99999) (Bio.Reader.zigzag r);
  Alcotest.(check (float 1e-12)) "f64" 3.14159 (Bio.Reader.f64 r);
  Alcotest.(check string) "string" "hello" (Bio.Reader.string r);
  Alcotest.(check bool) "bool" true (Bio.Reader.bool r);
  Alcotest.(check bool) "at_end" true (Bio.Reader.at_end r)

let test_bytes_io_underflow () =
  let r = Bio.Reader.create "\xff" in
  match Bio.Reader.string r with
  | _ -> Alcotest.fail "expected underflow"
  | exception Bio.Reader.Underflow _ -> ()

(* A varint that decodes to a negative length (nine 0xff-continued
   bytes, 0x7f last: every bit of the int set) once slipped past the
   [pos + n > length] bound and made [String.sub] raise
   [Invalid_argument] out of every decoder, which catch only
   [Underflow]/[Failure] — [Stream.dispatch]'s receive loop included. *)
let negative_length = "\xff" ^ String.make 8 '\xff' ^ "\x7f"

let test_bytes_io_negative_length () =
  let r = Bio.Reader.create negative_length in
  (match Bio.Reader.string r with
  | _ -> Alcotest.fail "expected underflow"
  | exception Bio.Reader.Underflow _ -> ());
  match Pti_core.Message_wire.decode ("PTIM\x01\x00" ^ negative_length) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "message with a negative length decoded"

let test_batch_frame_negative_length () =
  let w = Bio.Writer.create () in
  Bio.Writer.raw w ("\x01" ^ negative_length);
  match Pti_serial.Batch_frame.decode (Bio.seal ~magic:"PTIF\x01" w) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "batch frame with a negative length decoded"

(* ----------------------------- values ------------------------------ *)

let sample_person r =
  let p = Demo.make_news_person r ~name:"Ser" ~age:7 in
  let home =
    Eval.construct r Demo.news_address
      [ Value.Vstring "1 Main St"; Value.Vstring "Springfield" ]
  in
  ignore (Eval.call r p "setHome" [ home ]);
  p

let cyclic_pair r =
  let a = Demo.make_news_person r ~name:"A" ~age:1 in
  let b = Demo.make_news_person r ~name:"B" ~age:2 in
  ignore (Eval.call r a "setSpouse" [ b ]);
  ignore (Eval.call r b "setSpouse" [ a ]);
  a

let roundtrip_codec encode decode r v =
  match decode r (encode v) with
  | Ok v' -> v'
  | Error _ -> Alcotest.fail "decode failed"

let check_person_roundtrip r v' =
  Alcotest.(check bool) "deep equal" true (Value.equal_deep
    (Value.Vstring "Ser") (Eval.call r v' "getName" []));
  let home = Eval.call r v' "getHome" [] in
  Alcotest.(check bool) "nested object" true
    (Value.equal_deep (Value.Vstring "Springfield")
       (Eval.call r home "getCity" []))

let test_bin_roundtrip () =
  let r = reg () in
  let v = sample_person r in
  let v' = roundtrip_codec Bin.encode Bin.decode r v in
  check_person_roundtrip r v';
  Alcotest.(check bool) "whole graph equal" true (Value.equal_deep v v')

let test_soap_roundtrip () =
  let r = reg () in
  let v = sample_person r in
  let v' = roundtrip_codec Soap.encode Soap.decode r v in
  check_person_roundtrip r v';
  Alcotest.(check bool) "whole graph equal" true (Value.equal_deep v v')

let test_cycles_both_codecs () =
  let r = reg () in
  let v = cyclic_pair r in
  let check v' =
    let spouse = Eval.call r v' "getSpouse" [] in
    let back = Eval.call r spouse "getSpouse" [] in
    match back, v' with
    | Value.Vobj o1, Value.Vobj o2 ->
        Alcotest.(check bool) "cycle identity" true (o1 == o2)
    | _ -> Alcotest.fail "expected objects"
  in
  check (roundtrip_codec Bin.encode Bin.decode r v);
  check (roundtrip_codec Soap.encode Soap.decode r v)

let test_shared_reference_not_duplicated () =
  let r = reg () in
  let shared = Demo.make_news_person r ~name:"S" ~age:0 in
  let a = Demo.make_news_person r ~name:"A" ~age:1 in
  let b = Demo.make_news_person r ~name:"B" ~age:2 in
  ignore (Eval.call r a "setSpouse" [ shared ]);
  ignore (Eval.call r b "setSpouse" [ shared ]);
  let arr =
    Value.Varr { Value.elem_ty = Ty.Named Demo.news_person; items = [| a; b |] }
  in
  let check v' =
    match v' with
    | Value.Varr { Value.items = [| a'; b' |]; _ } -> (
        match Eval.call r a' "getSpouse" [], Eval.call r b' "getSpouse" [] with
        | Value.Vobj s1, Value.Vobj s2 ->
            Alcotest.(check bool) "sharing preserved" true (s1 == s2)
        | _ -> Alcotest.fail "expected spouse objects")
    | _ -> Alcotest.fail "expected a 2-array"
  in
  check (roundtrip_codec Bin.encode Bin.decode r arr);
  check (roundtrip_codec Soap.encode Soap.decode r arr)

let test_primitives_all_codecs () =
  let r = Registry.create () in
  let values =
    [
      Value.Vnull; Value.Vbool true; Value.Vbool false; Value.Vint 0;
      Value.Vint (-123456); Value.Vint (max_int / 4);
      Value.Vfloat 0.; Value.Vfloat (-1.5e300); Value.Vfloat infinity;
      Value.Vstring ""; Value.Vstring "héllo <&> \"w\"";
      Value.Vchar 'x'; Value.Vchar '\000';
      Value.Varr { Value.elem_ty = Ty.Int; items = [| Value.Vint 1; Value.Vint 2 |] };
      Value.Varr { Value.elem_ty = Ty.String; items = [||] };
    ]
  in
  List.iter
    (fun v ->
      let vb = roundtrip_codec Bin.encode Bin.decode r v in
      Alcotest.(check bool) "bin prim" true (Value.equal_deep v vb);
      let vs = roundtrip_codec Soap.encode Soap.decode r v in
      Alcotest.(check bool) "soap prim" true (Value.equal_deep v vs))
    values

let test_unknown_type_errors () =
  let full = reg () in
  let empty = Registry.create () in
  let v = sample_person full in
  (match Bin.decode empty (Bin.encode v) with
  | Error (Bin.Unknown_type t) ->
      Alcotest.(check string) "bin names the type" Demo.news_person t
  | _ -> Alcotest.fail "bin should fail with Unknown_type");
  match Soap.decode empty (Soap.encode v) with
  | Error (Soap.Unknown_type _) -> ()
  | _ -> Alcotest.fail "soap should fail with Unknown_type"

let test_malformed_binary () =
  let r = reg () in
  List.iter
    (fun s ->
      match Bin.decode r s with
      | Error (Bin.Malformed _) -> ()
      | _ -> Alcotest.failf "should be malformed: %S" s)
    [ ""; "XXXX"; "PTIB\x01"; "PTIB\x01\x63"; "PTIB\x01\x02\x01extra" ]

let test_class_names_without_decoding () =
  let r = reg () in
  let v = sample_person r in
  (match Bin.class_names (Bin.encode v) with
  | Ok names ->
      Alcotest.(check bool) "person listed" true
        (List.mem Demo.news_person names);
      Alcotest.(check bool) "address listed" true
        (List.mem Demo.news_address names)
  | Error _ -> Alcotest.fail "class_names failed");
  let names = Soap.class_names (Soap.encode_xml v) in
  Alcotest.(check bool) "soap person listed" true
    (List.mem Demo.news_person names)

let test_proxy_serializes_as_target () =
  let r = reg () in
  let p = sample_person r in
  let proxy =
    Value.Vproxy
      { Value.px_interface = "x.Y"; px_target = p;
        px_invoke = (fun _ _ -> Value.Vnull) }
  in
  Alcotest.(check string) "same bytes as target" (Bin.encode p)
    (Bin.encode proxy)

(* --------------------------- assembly codec ------------------------ *)

let test_expr_xml_roundtrip () =
  let exprs =
    [
      E.null; E.int 42; E.str "a<b&c"; E.bool true;
      E.Const (E.Cfloat 2.5); E.Const (E.Cchar 'q'); E.This; E.Var "x";
      E.Let ("t", E.int 1, E.Binop (E.Add, E.Var "t", E.int 2));
      E.Assign ("x", E.int 9);
      E.Field_get (E.This, "name");
      E.Field_set (E.This, "name", E.str "n");
      E.Call (E.This, "m", [ E.int 1; E.str "s" ]);
      E.Static_call ("a.B", "m", [ E.int 1 ]);
      E.New ("a.B", [ E.null ]);
      E.New_array (Ty.Int, [ E.int 1; E.int 2 ]);
      E.Index_get (E.Var "a", E.int 0);
      E.Index_set (E.Var "a", E.int 0, E.int 5);
      E.Array_length (E.Var "a");
      E.If (E.bool true, E.int 1, E.int 2);
      E.While (E.bool false, E.null);
      E.Seq [ E.int 1; E.int 2 ];
      E.Unop (E.Not, E.bool false);
      E.Unop (E.Neg, E.int 3);
      E.Throw (E.str "boom");
      E.Try (E.Throw (E.int 1), "e", E.Var "e");
    ]
  in
  List.iter
    (fun e ->
      match Tree_decode.expr_of_xml (Axml.expr_to_xml e) with
      | Ok e' ->
          Alcotest.(check string) "expr roundtrip" (E.to_string e)
            (E.to_string e')
      | Error msg -> Alcotest.failf "expr codec failed: %s" msg)
    exprs

let test_assembly_xml_roundtrip () =
  List.iter
    (fun asm ->
      let s = Axml.to_string asm in
      match Axml.of_string s with
      | Error msg -> Alcotest.failf "assembly parse failed: %s" msg
      | Ok asm' ->
          Alcotest.(check string) "name" asm.Assembly.asm_name
            asm'.Assembly.asm_name;
          Alcotest.(check bool) "classes equal" true
            (asm.Assembly.asm_classes = asm'.Assembly.asm_classes))
    [
      Demo.news_assembly (); Demo.social_assembly (); Demo.printer_assembly ();
      Demo.trap_assembly ();
    ]

let test_assembly_roundtrip_still_runs () =
  (* Code that crossed the wire must still execute. *)
  let asm = Demo.news_assembly () in
  let asm' =
    match Axml.of_string (Axml.to_string asm) with
    | Ok a -> a
    | Error m -> Alcotest.failf "parse: %s" m
  in
  let r = Demo.fresh_registry [ asm' ] in
  let p = Demo.make_news_person r ~name:"Wire" ~age:1 in
  match Eval.call r p "greet" [] with
  | Value.Vstring s -> Alcotest.(check string) "greet" "Hello, Wire" s
  | _ -> Alcotest.fail "greet failed after roundtrip"

(* --------------------------- envelope ------------------------------ *)

let test_envelope_roundtrip () =
  let r = reg () in
  let v = sample_person r in
  List.iter
    (fun codec ->
      let env =
        Env.make r ~codec
          ~download_path:(fun ~assembly -> "asm://host/" ^ assembly)
          v
      in
      Alcotest.(check bool) "lists both classes" true
        (List.length env.Env.env_types = 2);
      let env' =
        match Env.of_string (Env.to_string env) with
        | Ok e -> e
        | Error e -> Alcotest.failf "envelope parse: %a" Env.pp_error e
      in
      Alcotest.(check bool) "same types" true
        (List.map (fun e -> e.Env.te_name) env'.Env.env_types
        = List.map (fun e -> e.Env.te_name) env.Env.env_types);
      match Env.decode_payload r env' with
      | Ok v' -> Alcotest.(check bool) "payload" true (Value.equal_deep v v')
      | Error e -> Alcotest.failf "payload decode: %a" Env.pp_error e)
    [ Env.Soap; Env.Binary ]

let test_envelope_root_first () =
  let r = reg () in
  let v = sample_person r in
  let env =
    Env.make r ~codec:Env.Binary
      ~download_path:(fun ~assembly -> assembly)
      v
  in
  match env.Env.env_types with
  | first :: _ ->
      Alcotest.(check string) "root type first" Demo.news_person
        first.Env.te_name
  | [] -> Alcotest.fail "no types"

let test_envelope_unknown_class_on_sender () =
  let r = reg () in
  let stranger =
    Value.Vobj
      { Value.oid = Value.fresh_oid (); cls = "ghost.Type";
        fields = Hashtbl.create 1 }
  in
  match
    Env.make r ~codec:Env.Binary ~download_path:(fun ~assembly -> assembly)
      stranger
  with
  | _ -> Alcotest.fail "unregistered class should be refused"
  | exception Invalid_argument _ -> ()

let test_envelope_decode_requires_types () =
  let full = reg () in
  let v = sample_person full in
  let env =
    Env.make full ~codec:Env.Binary ~download_path:(fun ~assembly -> assembly) v
  in
  let empty = Registry.create () in
  match Env.decode_payload empty env with
  | Error (Env.Unknown_type _) -> ()
  | _ -> Alcotest.fail "decode without types should fail"

(* Regression: the pre-length-prefix canonical string joined fields with
   0x00/0x01 separators, but a binary payload is arbitrary bytes — these
   two distinct envelopes rendered the exact same canonical string
   (field text migrating across a separator), i.e. a digest-collision
   blind spot for corruption detection. *)
let test_envelope_digest_collision () =
  let entry path =
    {
      Env.te_name = "n";
      te_guid = Pti_util.Guid.of_name "n";
      te_assembly = "a";
      te_version = 1;
      te_download_path = path;
    }
  in
  let a =
    { Env.env_types = [ entry "p" ];
      env_payload = Env.Pbinary "x\x00binary:y" }
  in
  let b =
    { Env.env_types = [ entry "p\x00binary:x" ];
      env_payload = Env.Pbinary "y" }
  in
  Alcotest.(check bool) "distinct envelopes" true (a <> b);
  Alcotest.(check bool) "digests differ" false
    (String.equal (Env.digest a) (Env.digest b))

(* Golden emission order: the root's class first, then the remaining
   entries sorted by qualified name — independent of stdlib hash-table
   iteration order, so envelope bytes and digests are stable across
   OCaml releases. *)
let test_envelope_golden_order () =
  let r = reg () in
  let author = sample_person r in
  let ev = Demo.make_news_event r ~headline:"h" ~author ~priority:1 in
  let v =
    Value.Varr
      { Value.elem_ty = Ty.Named "object"; items = [| ev; author |] }
  in
  let env =
    Env.make r ~codec:Env.Binary ~download_path:(fun ~assembly -> assembly) v
  in
  Alcotest.(check (list string))
    "root class first, tail sorted by name"
    [ "newsw.NewsEvent"; "newsw.Address"; "newsw.Person" ]
    (List.map (fun e -> e.Env.te_name) env.Env.env_types)

let test_envelope_malformed () =
  List.iter
    (fun s ->
      match Env.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should not parse: %s" s)
    [
      "";
      "<envelope><payload encoding=\"weird\">x</payload></envelope>";
      "<envelope><payload encoding=\"binary\">!!</payload></envelope>";
      "<envelope/>";
      "<notenvelope/>";
      "<envelope><type name=\"a\" guid=\"bad\" assembly=\"x\" \
       downloadPath=\"p\"/><payload encoding=\"binary\"></payload></envelope>";
    ]

(* Random object graphs for codec property tests. *)
let gen_value reg =
  let open QCheck.Gen in
  fix
    (fun self depth ->
      if depth = 0 then
        oneof
          [
            return Value.Vnull;
            map (fun b -> Value.Vbool b) bool;
            map (fun i -> Value.Vint i) small_signed_int;
            map (fun s -> Value.Vstring s) (string_size (int_bound 10));
          ]
      else
        frequency
          [
            (2, self 0);
            ( 3,
              map2
                (fun name age ->
                  let p =
                    Demo.make_news_person reg ~name ~age
                  in
                  p)
                (string_size (int_bound 8))
                small_nat );
            ( 1,
              map
                (fun items ->
                  Value.Varr
                    {
                      Value.elem_ty = Ty.Named "object";
                      items = Array.of_list items;
                    })
                (list_size (int_bound 4) (self (depth - 1))) );
          ])
    3

let prop_bin_roundtrip =
  let r = reg () in
  QCheck.Test.make ~name:"binary codec roundtrip on random graphs" ~count:100
    (QCheck.make (gen_value r))
    (fun v ->
      match Bin.decode r (Bin.encode v) with
      | Ok v' -> Value.equal_deep v v'
      | Error _ -> false)

let prop_soap_roundtrip =
  let r = reg () in
  QCheck.Test.make ~name:"soap codec roundtrip on random graphs" ~count:100
    (QCheck.make (gen_value r))
    (fun v ->
      match Soap.decode r (Soap.encode v) with
      | Ok v' -> Value.equal_deep v v'
      | Error _ -> false)

let prop_envelope_roundtrip =
  let r = reg () in
  QCheck.Test.make ~name:"envelope roundtrip on random graphs" ~count:60
    (QCheck.make (gen_value r))
    (fun v ->
      let env =
        Env.make r ~codec:Env.Binary ~download_path:(fun ~assembly -> assembly) v
      in
      match Env.of_string (Env.to_string env) with
      | Error _ -> false
      | Ok env' -> (
          match Env.decode_payload r env' with
          | Ok v' -> Value.equal_deep v v'
          | Error _ -> false))

(* A single flipped byte anywhere in a wire string must never decode
   into a mangled value. For the binary codec the answer is strictly
   [Error]: every byte is covered by the magic, the FNV checksum or the
   checksummed body, and the per-byte absorption step of FNV-1a is a
   bijection, so any substitution changes the hash. *)
let prop_bin_flip_always_detected =
  let r = reg () in
  let wire =
    Bin.encode (Demo.make_news_person r ~name:"Ada Lovelace" ~age:36)
  in
  QCheck.Test.make ~name:"binary codec detects any single byte flip"
    ~count:500
    QCheck.(pair (int_bound (String.length wire - 1)) (1 -- 255))
    (fun (pos, x) ->
      let b = Bytes.of_string wire in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x));
      match Bin.decode r (Bytes.to_string b) with
      | Error _ -> true
      | Ok _ -> false)

(* Envelopes are XML, where a flip can land in insignificant syntax
   (whitespace, a quote style) and re-parse to the same document — so
   the guarantee is: decode fails, or the value is semantically intact.
   Exercised for both payload codecs. *)
let prop_envelope_flip_never_mangles =
  let r = reg () in
  let original = Demo.make_news_person r ~name:"Ada Lovelace" ~age:36 in
  let wire codec =
    Env.to_string
      (Env.make r ~codec ~download_path:(fun ~assembly -> assembly) original)
  in
  let soap_wire = wire Env.Soap in
  let bin_wire = wire Env.Binary in
  QCheck.Test.make
    ~name:"envelope flip: decode fails or the value is intact" ~count:600
    QCheck.(triple bool (int_bound 99999) (1 -- 255))
    (fun (use_soap, pos, x) ->
      let wire = if use_soap then soap_wire else bin_wire in
      let pos = pos mod String.length wire in
      let b = Bytes.of_string wire in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x));
      match Env.of_string (Bytes.to_string b) with
      | Error _ -> true
      | Ok env -> (
          match Env.decode_payload r env with
          | Error _ -> true
          | Ok v -> Value.equal_deep original v))

(* ------------------------ handle envelopes ------------------------- *)

module Ht = Pti_serial.Handle_table
module Bf = Pti_serial.Batch_frame

let mk_env r v = Env.make r ~codec:Env.Binary ~download_path:(fun ~assembly -> assembly) v

let type_names (env : Env.t) = List.map (fun e -> e.Env.te_name) env.Env.env_types

(* First send binds, second send refs; a cold receiver NAKs the refs and
   resolves after install — the full negotiation cycle at the codec
   level. *)
let test_handle_bind_then_ref () =
  let r = reg () in
  let v = sample_person r in
  let env = mk_env r v in
  let stab = Ht.create_sender () in
  let form e =
    match Ht.obtain stab e with `Fresh h -> `Bind h | `Known h -> `Ref h
  in
  let wire1 = Env.to_string_h env ~form in
  let rtab = Ht.create_receiver ~capacity:8 in
  let resolve h = Ht.resolve rtab h in
  (match Env.of_string_h ~resolve wire1 with
  | Ok (env', binds) ->
      Alcotest.(check int) "first send binds every entry" 2 (List.length binds);
      List.iter (fun (h, e) -> Ht.install rtab h e) binds;
      Alcotest.(check (list string)) "same types" (type_names env)
        (type_names env');
      (match Env.decode_payload r env' with
      | Ok v' -> Alcotest.(check bool) "payload" true (Value.equal_deep v v')
      | Error e -> Alcotest.failf "decode: %a" Env.pp_error e)
  | Error e -> Alcotest.failf "bind parse: %a" Env.pp_error e);
  let wire2 = Env.to_string_h env ~form in
  Alcotest.(check bool) "ref form is smaller on the wire" true
    (String.length wire2 < String.length wire1);
  (match Env.of_string_h ~resolve wire2 with
  | Ok (env', binds) ->
      Alcotest.(check int) "refs carry no bindings" 0 (List.length binds);
      Alcotest.(check (list string)) "resolved types" (type_names env)
        (type_names env')
  | Error e -> Alcotest.failf "ref parse: %a" Env.pp_error e);
  (* Cold receiver: wire-intact, but the refs are unknown. *)
  let cold = Ht.create_receiver ~capacity:8 in
  Alcotest.(check bool) "wire_ok on unknown handles" true (Env.wire_ok wire2);
  match Env.of_string_h ~resolve:(fun h -> Ht.resolve cold h) wire2 with
  | Error (Env.Unknown_handles hs) ->
      Alcotest.(check int) "both handles NAKed" 2 (List.length hs)
  | Ok _ -> Alcotest.fail "cold table resolved refs"
  | Error e -> Alcotest.failf "expected Unknown_handles, got %a" Env.pp_error e

(* A binding that drifted (same handle, different entry) must be caught
   by the semantic digest — degradation can lose time, never types. *)
let test_handle_drifted_binding_rejected () =
  let r = reg () in
  let v = sample_person r in
  let env = mk_env r v in
  let stab = Ht.create_sender () in
  let form e =
    match Ht.obtain stab e with `Fresh h -> `Bind h | `Known h -> `Ref h
  in
  let wire1 = Env.to_string_h env ~form in
  let rtab = Ht.create_receiver ~capacity:8 in
  (match Env.of_string_h ~resolve:(fun h -> Ht.resolve rtab h) wire1 with
  | Ok (_, binds) -> List.iter (fun (h, e) -> Ht.install rtab h e) binds
  | Error e -> Alcotest.failf "bind parse: %a" Env.pp_error e);
  (* Swap the two learned bindings: handles resolve, to the wrong
     entries. *)
  (match
     (Ht.resolve rtab 1, Ht.resolve rtab 2)
   with
  | Some e1, Some e2 ->
      Ht.install rtab 1 e2;
      Ht.install rtab 2 e1
  | _ -> Alcotest.fail "bindings not installed");
  let wire2 = Env.to_string_h env ~form in
  match Env.of_string_h ~resolve:(fun h -> Ht.resolve rtab h) wire2 with
  | Error (Env.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "drifted bindings delivered a mis-typed envelope"
  | Error e -> Alcotest.failf "expected Corrupt, got %a" Env.pp_error e

(* Handle references exist only in the binary PTIE frame. An XML
   envelope using <typeref handle=...> decodes to an error, never to an
   envelope: not with its digest, not with the digest stripped, not
   even when the receiver's table could resolve the handle. *)
let test_handle_xml_typeref_rejected () =
  let r = reg () in
  let env = mk_env r (sample_person r) in
  let rtab = Ht.create_receiver ~capacity:8 in
  List.iteri (fun i e -> Ht.install rtab (i + 1) e) env.Env.env_types;
  let with_typeref ~keep_digest =
    match Env.to_xml env with
    | Xml.Element (tag, attrs, children) ->
        let attrs =
          if keep_digest then attrs else List.remove_assoc "digest" attrs
        in
        let typeref = Xml.elt "typeref" ~attrs:[ ("handle", "1") ] [] in
        let children =
          match children with
          | Xml.Element ("type", _, _) :: rest -> typeref :: rest
          | _ -> Alcotest.fail "classic envelope starts with a <type>"
        in
        Xml.to_string (Xml.Element (tag, attrs, children))
    | _ -> Alcotest.fail "envelope is not an element"
  in
  List.iter
    (fun keep_digest ->
      let doc = with_typeref ~keep_digest in
      match Env.of_string_h ~resolve:(Ht.resolve rtab) doc with
      | Ok _ ->
          Alcotest.failf "typeref document decoded (digest kept: %b)"
            keep_digest
      | Error _ -> ())
    [ true; false ]

(* The PTIE frame is checksummed end to end: no single byte flip can
   parse — not even by falling back to the XML path on a damaged
   magic. *)
let prop_binary_envelope_flip_always_detected =
  QCheck.Test.make ~name:"binary envelope: any single byte flip is detected"
    ~count:300
    QCheck.(pair (int_bound 100_000) (int_range 1 255))
    (fun (pos, x) ->
      let r = reg () in
      let env = mk_env r (sample_person r) in
      let stab = Ht.create_sender () in
      let form e =
        match Ht.obtain stab e with `Fresh h -> `Bind h | `Known h -> `Ref h
      in
      let s = Env.to_string_h env ~form in
      let pos = pos mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x));
      match Env.of_string_h ~resolve:(fun _ -> None) (Bytes.to_string b) with
      | Error _ -> true
      | Ok _ -> false)

(* The negotiation state machine under arbitrary interleavings of sends,
   receiver evictions and renegotiations: every envelope either parses
   to exactly the sender's types or NAKs — never a wrong type, and a
   NAK always recovers after re-binding. *)
let prop_handle_negotiation_state_machine =
  QCheck.Test.make ~count:200
    ~name:"handle negotiation: evictions only ever degrade, never mis-type"
    QCheck.(list_of_size Gen.(1 -- 20) (pair (int_bound 2) bool))
    (fun script ->
      let r = reg () in
      let author = sample_person r in
      let values =
        [|
          author;
          Demo.make_news_event r ~headline:"h" ~author ~priority:1;
          Value.Varr
            { Value.elem_ty = Ty.Named "object"; items = [| author |] };
        |]
      in
      let stab = Ht.create_sender () in
      (* Tiny receiver table: multi-type envelopes evict each other's
         bindings, on top of the scripted explicit clears. *)
      let rtab = Ht.create_receiver ~capacity:3 in
      let resolve h = Ht.resolve rtab h in
      let form e =
        match Ht.obtain stab e with `Fresh h -> `Bind h | `Known h -> `Ref h
      in
      List.for_all
        (fun (which, evict) ->
          if evict then Ht.clear_receiver rtab;
          let env = mk_env r values.(which) in
          let wire = Env.to_string_h env ~form in
          let check_parsed (env', binds) =
            List.iter (fun (h, e) -> Ht.install rtab h e) binds;
            type_names env' = type_names env
            &&
            match Env.decode_payload r env' with
            | Ok v' -> Value.equal_deep values.(which) v'
            | Error _ -> false
          in
          match Env.of_string_h ~resolve wire with
          | Ok parsed -> check_parsed parsed
          | Error (Env.Unknown_handles hs) -> (
              (* Renegotiate: the sender re-binds the NAKed handles and
                 the receiver reprocesses. Must succeed now. *)
              List.for_all
                (fun h ->
                  match Ht.entry_for stab h with
                  | Some e ->
                      Ht.install rtab h e;
                      true
                  | None -> false)
                hs
              &&
              match Env.of_string_h ~resolve wire with
              | Ok parsed -> check_parsed parsed
              | Error _ -> false)
          | Error _ -> false)
        script)

(* --------------------------- batch frames -------------------------- *)

let test_batch_frame_roundtrip () =
  let parts =
    [
      { Bf.p_envelope = "envelope-one"; p_tdescs = [ "d1"; "d2" ];
        p_assemblies = [] };
      { Bf.p_envelope = "envelope-two"; p_tdescs = [];
        p_assemblies = [ "asm-bytes" ] };
    ]
  in
  let piggyback = [ ("digest", "ping"); ("delta", "\x00bin\xff") ] in
  let frame = Bf.encode { Bf.parts; piggyback } in
  Alcotest.(check bool) "intact" true (Bf.intact frame);
  match Bf.decode frame with
  | Ok t ->
      Alcotest.(check int) "parts" 2 (List.length t.Bf.parts);
      Alcotest.(check bool) "parts roundtrip" true (t.Bf.parts = parts);
      Alcotest.(check bool) "piggyback roundtrip" true
        (t.Bf.piggyback = piggyback)
  | Error e -> Alcotest.failf "decode: %s" e

let prop_batch_frame_flip_always_detected =
  QCheck.Test.make ~count:300
    ~name:"batch frame: any single byte flip is detected"
    QCheck.(pair (int_bound 10_000) (int_range 1 255))
    (fun (pos, x) ->
      let frame =
        Bf.encode
          {
            Bf.parts =
              [ { Bf.p_envelope = "abcdef"; p_tdescs = [ "t" ];
                  p_assemblies = [ "a" ] } ];
            piggyback = [ ("k", "v") ];
          }
      in
      let pos = pos mod String.length frame in
      let b = Bytes.of_string frame in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x));
      let frame' = Bytes.to_string b in
      (not (Bf.intact frame'))
      && match Bf.decode frame' with Error _ -> true | Ok _ -> false)

let test_bind_frame_roundtrip_and_corruption () =
  let r = reg () in
  let env = mk_env r (sample_person r) in
  let binds = List.mapi (fun i e -> (i + 1, e)) env.Env.env_types in
  let frame = Ht.encode_bindings binds in
  Alcotest.(check bool) "intact" true (Ht.bindings_intact frame);
  (match Ht.decode_bindings frame with
  | Ok binds' -> Alcotest.(check bool) "roundtrip" true (binds = binds')
  | Error e -> Alcotest.failf "decode: %s" e);
  (* Flip every byte position in turn: all must be caught. *)
  for pos = 0 to String.length frame - 1 do
    let b = Bytes.of_string frame in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x41));
    let frame' = Bytes.to_string b in
    if Ht.bindings_intact frame' then
      Alcotest.failf "flip at %d passed bindings_intact" pos;
    match Ht.decode_bindings frame' with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "flip at %d decoded" pos
  done

(* ----------------------- golden wire bytes ------------------------- *)

(* Pinned before digests were streamed into the FNV state and frames went
   through [Bytes_io.seal]: every digest and every frame byte must stay
   identical. Long frames are pinned by length and FNV-1a (itself pinned
   to the published vectors in test_util). *)
let hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let pin name ~len ~fnv s =
  Alcotest.(check (pair int string)) name (len, fnv)
    (String.length s, Pti_util.Fnv.hash_hex s)

let handle_form () =
  let stab = Ht.create_sender () in
  fun e -> match Ht.obtain stab e with `Fresh h -> `Bind h | `Known h -> `Ref h

let test_wire_golden () =
  let r = reg () in
  let v = sample_person r in
  let envelope codec =
    Env.make r ~codec ~download_path:(fun ~assembly -> assembly) v
  in
  let env = envelope Env.Binary in
  Alcotest.(check string) "binary digest" "b7bbedaac7c956c8" (Env.digest env);
  let form = handle_form () in
  pin "PTIE bind" ~len:284 ~fnv:"37849a82ede46c58" (Env.to_string_h env ~form);
  Alcotest.(check string) "PTIE ref"
    ("5054494501455708a60a588c8fb7bbedaac7c956c8020201020201775054494202b69e"
   ^ "54df0ab441d20600000c6e657773772e506572736f6e040103616765020e0204686f6d"
   ^ "650601030d6e657773772e4164647265737302040463697479040b537072696e676669"
   ^ "656c640506737472656574040931204d61696e20537406046e616d6504035365720706"
   ^ "73706f75736500")
    (hex (Env.to_string_h env ~form));
  pin "classic" ~len:475 ~fnv:"38bbff9aeecd0fb3" (Env.to_string env);
  let env = envelope Env.Soap in
  Alcotest.(check string) "soap digest" "599a4945cb673e67" (Env.digest env);
  let form = handle_form () in
  pin "soap PTIE bind" ~len:501 ~fnv:"851aadf117ce3466"
    (Env.to_string_h env ~form);
  pin "soap classic" ~len:648 ~fnv:"86ba2df73ff0fbb1" (Env.to_string env);
  pin "PTIB" ~len:119 ~fnv:"be42c86c6561125f" (Bin.encode v);
  match Registry.find r Demo.news_person with
  | None -> Alcotest.fail "news person not registered"
  | Some cd ->
      pin "PTID" ~len:523 ~fnv:"401816b598e8f2d5"
        (Pti_typedesc.Type_description.to_binary_string
           (Pti_typedesc.Type_description.of_class cd))

let test_wire_golden_versioned () =
  let r = reg () in
  let env =
    Env.make ~version_of:(fun ~assembly:_ -> 3) r ~codec:Env.Binary
      ~download_path:(fun ~assembly -> assembly ^ "/v3")
      (sample_person r)
  in
  Alcotest.(check string) "digest" "24ec82a5bb657eb2" (Env.digest env);
  let form = handle_form () in
  let bind = Env.to_string_h env ~form in
  pin "PTIE bind" ~len:292 ~fnv:"68c1992c15f08a85" bind;
  pin "PTIH" ~len:161 ~fnv:"e3299d6a00d6ad81"
    (Ht.encode_bindings (List.mapi (fun i e -> (i + 1, e)) env.Env.env_types));
  pin "PTIF" ~len:317 ~fnv:"4f708f90f253df22"
    (Bf.encode
       {
         Bf.parts =
           [ { p_envelope = bind; p_tdescs = [ "d" ]; p_assemblies = [] } ];
         piggyback = [ ("k", "v") ];
       })

(* The cold path's XML documents: the type description and the assembly
   a receiver downloads for a fresh family. Pinned before the XML reader
   and digests were reworked; both must stay byte-identical. *)
let test_wire_golden_family_xml () =
  let module W = Pti_demo.Workload in
  let module Td = Pti_typedesc.Type_description in
  let asm = W.family ~index:1 ~flavor:W.Conformant in
  let person = W.person_name ~index:1 ~flavor:W.Conformant in
  let digest s = Xml.attr "digest" (Xml.parse_exn s) in
  match
    List.find_opt
      (fun cd -> String.equal (Meta.qualified_name cd) person)
      asm.Assembly.asm_classes
  with
  | None -> Alcotest.fail "family person class missing"
  | Some cd ->
      let tdesc = Td.to_xml_string (Td.of_class cd) in
      Alcotest.(check (option string)) "tdesc digest"
        (Some "925c2a5e4cf64b9a") (digest tdesc);
      pin "tdesc XML" ~len:1758 ~fnv:"0844c0c24cc07d76" tdesc;
      let asm_xml = Axml.to_string asm in
      Alcotest.(check (option string)) "assembly digest"
        (Some "afc11f8b05496582") (digest asm_xml);
      pin "assembly XML" ~len:4179 ~fnv:"4363a2a5c8af1f22" asm_xml

(* Allocation gates. [unseal] verifies magic and checksum in place and
   allocates only its reader (4 words) and the [Ok] around it (2). The
   envelope ceilings are the codec's words per call on a warm link
   (every type a handle ref) when the streamed digests landed — 279 to
   encode, 285 to decode — plus 10 % headroom. *)
let test_wire_alloc () =
  let frame =
    Bf.encode
      {
        Bf.parts =
          [
            { p_envelope = String.make 200 'e'; p_tdescs = [];
              p_assemblies = [] };
          ];
        piggyback = [];
      }
  in
  Alloc.check_ceiling "unseal" ~ceiling:6. (fun () ->
      Bio.unseal ~magic:"PTIF\x01" frame);
  let r = reg () in
  let env = mk_env r (sample_person r) in
  let form = handle_form () in
  let rtab = Ht.create_receiver ~capacity:8 in
  let resolve h = Ht.resolve rtab h in
  (match Env.of_string_h ~resolve (Env.to_string_h env ~form) with
  | Ok (_, binds) -> List.iter (fun (h, e) -> Ht.install rtab h e) binds
  | Error e -> Alcotest.failf "bind: %a" Env.pp_error e);
  let warm = Env.to_string_h env ~form in
  Alloc.check_ceiling "Envelope.to_string_h, warm link" ~ceiling:307. (fun () ->
      Env.to_string_h env ~form);
  Alloc.check_ceiling "Envelope.of_string_h, warm link" ~ceiling:314. (fun () ->
      Env.of_string_h ~resolve warm)

(* The cold path's decoders on the family documents pinned above. Both
   read straight from bytes with a streamed digest check; through a
   parsed tree they cost 3 716 and 9 748 words per call. Ceilings: the
   words per call when the tree left the path (453 and 1 445), plus
   10 % headroom. *)
let test_cold_decoder_alloc () =
  let module W = Pti_demo.Workload in
  let module Td = Pti_typedesc.Type_description in
  let asm = W.family ~index:1 ~flavor:W.Conformant in
  let person = W.person_name ~index:1 ~flavor:W.Conformant in
  let cd =
    List.find
      (fun cd -> String.equal (Meta.qualified_name cd) person)
      asm.Assembly.asm_classes
  in
  let tdesc = Td.to_xml_string (Td.of_class cd) in
  let asm_xml = Axml.to_string asm in
  Alloc.check_ceiling "Td.of_xml_string, family 1" ~ceiling:498. (fun () ->
      Td.of_xml_string tdesc);
  Alloc.check_ceiling "Assembly_xml.of_string, family 1" ~ceiling:1590.
    (fun () -> Axml.of_string asm_xml)

(* ----------------------------- framing ----------------------------- *)

module Framing = Pti_serial.Framing

(* Drain every complete frame currently poppable. *)
let drain dec =
  let rec go acc =
    match Framing.Decoder.pop dec with
    | Ok (Some p) -> go (p :: acc)
    | Ok None -> Ok (List.rev acc)
    | Error e -> Error e
  in
  go []

let test_framing_split_at_every_boundary () =
  let payloads = [ ""; "x"; String.make 300 'y'; "tail" ] in
  let wire = String.concat "" (List.map Framing.encode payloads) in
  (* For every split point: frames completed by the prefix pop early,
     and prefix-frames + suffix-frames = all frames, in order. *)
  for i = 0 to String.length wire do
    let dec = Framing.Decoder.create () in
    Framing.Decoder.feed dec (String.sub wire 0 i);
    let first =
      match drain dec with Ok l -> l | Error e -> Alcotest.failf "%s" e
    in
    Framing.Decoder.feed dec (String.sub wire i (String.length wire - i));
    let second =
      match drain dec with Ok l -> l | Error e -> Alcotest.failf "%s" e
    in
    Alcotest.(check (list string))
      (Printf.sprintf "split at %d" i)
      payloads (first @ second)
  done

let test_framing_byte_at_a_time () =
  let payloads = [ "a"; String.make 200 'b'; "" ] in
  let wire = String.concat "" (List.map Framing.encode payloads) in
  let dec = Framing.Decoder.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      Framing.Decoder.feed dec (String.make 1 c);
      match drain dec with
      | Ok l -> got := !got @ l
      | Error e -> Alcotest.failf "byte feed: %s" e)
    wire;
  Alcotest.(check (list string)) "all frames" payloads !got;
  Alcotest.(check int) "nothing buffered" 0 (Framing.Decoder.buffered dec)

let test_framing_oversize_rejected () =
  let dec = Framing.Decoder.create ~max_frame:10 () in
  Framing.Decoder.feed dec (Framing.encode (String.make 11 'z'));
  match Framing.Decoder.pop dec with
  | Error e ->
      Alcotest.(check bool) "mentions limit" true
        (String.length e > 0
        && String.length e >= 5
        && String.sub e 0 5 = "frame")
  | Ok _ -> Alcotest.fail "oversize frame accepted"

let test_framing_unterminated_varint () =
  let dec = Framing.Decoder.create () in
  Framing.Decoder.feed dec (String.make 11 '\xff');
  match Framing.Decoder.pop dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "runaway varint accepted"

let test_framing_overhead () =
  Alcotest.(check int) "1-byte prefix" 1 (Framing.frame_overhead 0);
  Alcotest.(check int) "1-byte prefix max" 1 (Framing.frame_overhead 127);
  Alcotest.(check int) "2-byte prefix" 2 (Framing.frame_overhead 128);
  Alcotest.(check int) "3-byte prefix" 3 (Framing.frame_overhead 20_000);
  List.iter
    (fun n ->
      let p = String.make n 'q' in
      Alcotest.(check int)
        (Printf.sprintf "encode length %d" n)
        (n + Framing.frame_overhead n)
        (String.length (Framing.encode p)))
    [ 0; 1; 127; 128; 300 ]

(* Random payload lists survive random re-chunking of the byte stream. *)
let prop_framing_rechunk_roundtrip =
  QCheck.Test.make ~name:"framing roundtrip under random chunking" ~count:200
    QCheck.(pair (small_list (string_of_size Gen.(0 -- 400))) (0 -- 1_000_000))
    (fun (payloads, seed) ->
      let wire = String.concat "" (List.map Framing.encode payloads) in
      let st = Random.State.make [| seed |] in
      let dec = Framing.Decoder.create () in
      let got = ref [] in
      let pos = ref 0 in
      let ok = ref true in
      while !pos < String.length wire && !ok do
        let n =
          1 + Random.State.int st (max 1 (String.length wire - !pos))
        in
        Framing.Decoder.feed dec ~off:!pos ~len:n wire;
        pos := !pos + n;
        match drain dec with
        | Ok l -> got := !got @ l
        | Error _ -> ok := false
      done;
      !ok && !got = payloads && Framing.Decoder.buffered dec = 0)

let () =
  Alcotest.run "serial"
    [
      ( "bytes_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_bytes_io_roundtrip;
          Alcotest.test_case "underflow" `Quick test_bytes_io_underflow;
          Alcotest.test_case "negative length rejected" `Quick
            test_bytes_io_negative_length;
          Alcotest.test_case "batch frame with a negative length" `Quick
            test_batch_frame_negative_length;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "binary roundtrip" `Quick test_bin_roundtrip;
          Alcotest.test_case "soap roundtrip" `Quick test_soap_roundtrip;
          Alcotest.test_case "cycles" `Quick test_cycles_both_codecs;
          Alcotest.test_case "shared references" `Quick
            test_shared_reference_not_duplicated;
          Alcotest.test_case "primitives" `Quick test_primitives_all_codecs;
          Alcotest.test_case "unknown types" `Quick test_unknown_type_errors;
          Alcotest.test_case "malformed binary" `Quick test_malformed_binary;
          Alcotest.test_case "class names probe" `Quick
            test_class_names_without_decoding;
          Alcotest.test_case "proxy encodes as target" `Quick
            test_proxy_serializes_as_target;
        ] );
      ( "assembly-codec",
        [
          Alcotest.test_case "expr roundtrip" `Quick test_expr_xml_roundtrip;
          Alcotest.test_case "assembly roundtrip" `Quick
            test_assembly_xml_roundtrip;
          Alcotest.test_case "code still runs after wire" `Quick
            test_assembly_roundtrip_still_runs;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "roundtrip both codecs" `Quick
            test_envelope_roundtrip;
          Alcotest.test_case "root type first" `Quick test_envelope_root_first;
          Alcotest.test_case "sender must know classes" `Quick
            test_envelope_unknown_class_on_sender;
          Alcotest.test_case "decode needs loaded types" `Quick
            test_envelope_decode_requires_types;
          Alcotest.test_case "malformed" `Quick test_envelope_malformed;
          Alcotest.test_case "digest collision regression" `Quick
            test_envelope_digest_collision;
          Alcotest.test_case "golden emission order" `Quick
            test_envelope_golden_order;
        ] );
      ( "handles",
        [
          Alcotest.test_case "bind then ref" `Quick test_handle_bind_then_ref;
          Alcotest.test_case "drifted binding rejected" `Quick
            test_handle_drifted_binding_rejected;
          Alcotest.test_case "xml typeref rejected" `Quick
            test_handle_xml_typeref_rejected;
          QCheck_alcotest.to_alcotest prop_binary_envelope_flip_always_detected;
          QCheck_alcotest.to_alcotest prop_handle_negotiation_state_machine;
        ] );
      ( "batch",
        [
          Alcotest.test_case "frame roundtrip" `Quick
            test_batch_frame_roundtrip;
          Alcotest.test_case "bind frame roundtrip + corruption" `Quick
            test_bind_frame_roundtrip_and_corruption;
          QCheck_alcotest.to_alcotest prop_batch_frame_flip_always_detected;
        ] );
      ( "golden",
        [
          Alcotest.test_case "wire bytes and digests" `Quick test_wire_golden;
          Alcotest.test_case "versioned wire bytes and digests" `Quick
            test_wire_golden_versioned;
          Alcotest.test_case "family tdesc and assembly XML" `Quick
            test_wire_golden_family_xml;
          Alcotest.test_case "allocation gate" `Quick test_wire_alloc;
          Alcotest.test_case "cold decoders allocation gate" `Quick
            test_cold_decoder_alloc;
        ] );
      ( "framing",
        [
          Alcotest.test_case "split at every byte boundary" `Quick
            test_framing_split_at_every_boundary;
          Alcotest.test_case "byte-at-a-time feed" `Quick
            test_framing_byte_at_a_time;
          Alcotest.test_case "oversize frame rejected" `Quick
            test_framing_oversize_rejected;
          Alcotest.test_case "unterminated varint rejected" `Quick
            test_framing_unterminated_varint;
          Alcotest.test_case "prefix overhead" `Quick test_framing_overhead;
          QCheck_alcotest.to_alcotest prop_framing_rechunk_roundtrip;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_bin_roundtrip;
          QCheck_alcotest.to_alcotest prop_soap_roundtrip;
          QCheck_alcotest.to_alcotest prop_envelope_roundtrip;
          QCheck_alcotest.to_alcotest prop_bin_flip_always_detected;
          QCheck_alcotest.to_alcotest prop_envelope_flip_never_mangles;
        ] );
    ]
