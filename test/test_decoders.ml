(* Differential tests for the cold path's XML decoders. [Td.of_xml_string]
   and [Assembly_xml.of_string] read straight from bytes; the tree
   decoders in [Tree_decode] parse, verify the digest over the tree and
   convert. On every input both must agree: equal values on [Ok], both
   failing otherwise, and the very same message when the reference fails
   on syntax or on the digest. *)

open Pti_cts
module Xml = Pti_xml.Xml
module Digest_attr = Pti_xml.Digest_attr
module Td = Pti_typedesc.Type_description
module Axml = Pti_serial.Assembly_xml
module W = Pti_demo.Workload
module Demo = Pti_demo.Demo_types

let flavors =
  W.[ Conformant; Trap_missing; Trap_arity; Trap_fieldtype; Typo 1; Typo 2; Typo 3 ]

let assemblies =
  List.concat_map
    (fun index -> List.map (fun flavor -> W.family ~index ~flavor) flavors)
    (List.init 8 Fun.id)
  @ [
      W.family_v ~version:2 ~index:0 ~flavor:W.Conformant;
      W.interest_assembly ();
      Demo.news_assembly (); Demo.social_assembly (); Demo.bogus_assembly ();
      Demo.trap_assembly (); Demo.typo_assembly (); Demo.printer_assembly ();
      Demo.printsvc_assembly ();
    ]

let descriptions =
  List.concat_map
    (fun a -> List.map Td.of_class a.Assembly.asm_classes)
    assemblies

(* Errors whose text the two paths must share. *)
let hard_error msg =
  String.starts_with ~prefix:"XML parse error" msg
  || String.ends_with ~suffix:": digest mismatch" msg

let agree what ~decode ~reference s =
  match decode s, reference s with
  | Ok a, Ok b ->
      if compare a b <> 0 then Alcotest.failf "%s: different values for %S" what s
  | Ok _, Error e ->
      Alcotest.failf "%s: accepted %S, which the reference rejects (%s)" what s e
  | Error e, Ok _ ->
      Alcotest.failf "%s: rejected %S (%s), which the reference accepts" what s e
  | Error a, Error b ->
      if hard_error b && not (String.equal a b) then
        Alcotest.failf "%s: %S: error %S, reference %S" what s a b

let agree_td = agree "tdesc" ~decode:Td.of_xml_string
    ~reference:Tree_decode.td_of_xml_string

let agree_asm = agree "assembly" ~decode:Axml.of_string
    ~reference:Tree_decode.assembly_of_string

(* ----------------------------- variants ----------------------------- *)

let rec map_elements f = function
  | Xml.Element (tag, attrs, cs) ->
      f (Xml.Element (tag, attrs, List.map (map_elements f) cs))
  | other -> other

let with_children f = function
  | Xml.Element (tag, attrs, cs) -> Xml.Element (tag, attrs, f tag cs)
  | other -> other

let members =
  [ "typeDescription"; "assembly"; "class"; "field"; "method"; "constructor";
    "param"; "super"; "interface"; "requires" ]

let root_children f = function
  | Xml.Element (tag, attrs, cs) -> Xml.Element (tag, attrs, f cs)
  | other -> other

(* Whitespace between all children, as an indenting writer would leave. *)
let spaced =
  map_elements
    (with_children (fun _ cs ->
         List.concat_map (fun c -> [ Xml.Text "\n  "; c ]) cs @ [ Xml.Text "\n" ]))

(* A comment and a CDATA section ahead of every element's children. *)
let annotated =
  map_elements
    (with_children (fun _ cs -> Xml.Comment " note " :: Xml.Cdata "<&>" :: cs))

(* An unknown element, with children of its own, in every member. *)
let unknown_members =
  map_elements
    (with_children (fun tag cs ->
         if List.mem tag members then
           Xml.elt "extension" ~attrs:[ ("name", "x") ]
             [ Xml.elt "field" []; Xml.elt "method" [] ]
           :: cs
         else cs))

(* A first [<super>], [<body>] or field [<init>] wins: a well-formed one
   goes first, and a malformed duplicate after it is ignored. *)
let duplicates =
  map_elements
    (with_children (fun tag cs ->
         match tag with
         | "typeDescription" | "class" ->
             (Xml.elt "super" ~attrs:[ ("name", "dup.Base") ] [] :: cs)
             @ [ Xml.elt "super" [] ]
         | "method" | "constructor" ->
             (Xml.elt "body" [ Xml.elt "null" [] ] :: cs) @ [ Xml.elt "body" [] ]
         | "field" ->
             (Xml.elt "init" [ Xml.elt "null" [] ] :: cs)
             @ [ Xml.elt "init" [ Xml.elt "bogus" [] ] ]
         | _ -> cs))

let reversed = root_children List.rev

let drop_attr k =
  map_elements (function
    | Xml.Element (tag, attrs, cs) ->
        Xml.Element (tag, List.filter (fun (k', _) -> k' <> k) attrs, cs)
    | other -> other)

let set_attr k v =
  map_elements (function
    | Xml.Element (tag, attrs, cs) ->
        Xml.Element
          (tag, List.map (fun (k', v') -> (k', if k' = k then v else v')) attrs, cs)
    | other -> other)

(* Forms both decoders accept. *)
let accepted =
  [
    ("as is", Fun.id); ("whitespace", spaced); ("comments and CDATA", annotated);
    ("unknown elements", unknown_members); ("reordered", reversed);
    ("first wins", duplicates);
  ]

(* Forms that are accepted or rejected depending on the document. *)
let probing =
  List.map
    (fun k -> ("without " ^ k, drop_attr k))
    [ "name"; "type"; "visibility"; "static"; "return"; "guid"; "v"; "op";
      "kind"; "version"; "class"; "namespace" ]
  @ List.map
      (fun (k, v) -> (Printf.sprintf "%s=%S" k v, set_attr k v))
      [ ("type", "int[]"); ("type", " []"); ("visibility", "Public");
        ("static", "yes"); ("kind", "struct"); ("guid", "nope");
        ("version", "0x10"); ("v", "1_000"); ("op", "pow");
        ("return", "VOID"); ("namespace", "") ]

(* Compact rendering with every letter and digit of attribute values
   written as a character reference, decimal and hex in turn. *)
let rec render_refs b = function
  | Xml.Element (tag, attrs, cs) ->
      Buffer.add_char b '<';
      Buffer.add_string b tag;
      List.iter
        (fun (k, v) ->
          Buffer.add_string b (Printf.sprintf " %s=\"" k);
          String.iteri
            (fun i c ->
              match c with
              | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' ->
                  Buffer.add_string b
                    (if i land 1 = 0 then Printf.sprintf "&#%d;" (Char.code c)
                     else Printf.sprintf "&#x%x;" (Char.code c))
              | _ -> Buffer.add_string b (Xml.escape_attr (String.make 1 c)))
            v;
          Buffer.add_char b '"')
        attrs;
      if cs = [] then Buffer.add_string b "/>"
      else begin
        Buffer.add_char b '>';
        List.iter (render_refs b) cs;
        Buffer.add_string b (Printf.sprintf "</%s>" tag)
      end
  | other -> Buffer.add_string b (Xml.to_string other)

let digest_last = function
  | Xml.Element (tag, (k, v) :: attrs, cs) -> Xml.Element (tag, attrs @ [ (k, v) ], cs)
  | other -> other

(* Every wire form of a document: signed, unsigned, signed with the
   digest last, signed with references in values. *)
let renderings tree =
  let signed = Digest_attr.add tree in
  let b = Buffer.create 1024 in
  render_refs b signed;
  [
    Xml.to_string signed; Xml.to_string tree;
    Xml.to_string (digest_last signed); Buffer.contents b;
  ]

let test_samples () =
  List.iter (fun d -> agree_td (Td.to_xml_string d)) descriptions;
  List.iter (fun a -> agree_asm (Axml.to_string a)) assemblies;
  (* They decode to what was encoded. *)
  List.iter
    (fun d ->
      if Td.of_xml_string (Td.to_xml_string d) <> Ok d then
        Alcotest.failf "tdesc %s does not round-trip" (Td.qualified_name d))
    descriptions;
  List.iter
    (fun a ->
      match Axml.of_string (Axml.to_string a) with
      | Ok a' when compare a a' = 0 -> ()
      | _ -> Alcotest.failf "assembly %s does not round-trip" a.Assembly.asm_name)
    assemblies

let test_variants () =
  let accepts what decode s =
    match decode s with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %S rejected: %s" what s e
  in
  List.iter
    (fun (what, variant) ->
      List.iter
        (fun d ->
          List.iter
            (fun s ->
              agree_td s;
              accepts what Td.of_xml_string s)
            (renderings (variant (Td.to_xml d))))
        descriptions;
      List.iter
        (fun a ->
          List.iter
            (fun s ->
              agree_asm s;
              accepts what Axml.of_string s)
            (renderings (variant (Axml.to_xml a))))
        assemblies)
    accepted;
  (* The rejecting forms on one family of each flavor and the demo
     types. *)
  let few l = List.filteri (fun i _ -> i mod 8 = 0 || i >= 56) l in
  List.iter
    (fun (_, variant) ->
      List.iter
        (fun d -> List.iter agree_td (renderings (variant (Td.to_xml d))))
        (List.concat_map
           (fun a -> List.map Td.of_class a.Assembly.asm_classes)
           (few assemblies));
      List.iter
        (fun a -> List.iter agree_asm (renderings (variant (Axml.to_xml a))))
        (few assemblies))
    probing

(* The assemblies' own expression trees, one expression at a time. *)
let test_expressions () =
  let rec exprs = function
    | Xml.Element ((("body" | "init") as tag), _, cs) ->
        List.concat_map
          (function
            | Xml.Element _ as e -> [ Xml.elt tag [ e ] ] | _ -> [])
          cs
    | Xml.Element (_, _, cs) -> List.concat_map exprs cs
    | _ -> []
  in
  let bodies = List.concat_map (fun a -> exprs (Axml.to_xml a)) assemblies in
  Alcotest.(check bool) "bodies found" true (List.length bodies > 20);
  List.iter
    (fun b ->
      let m =
        Xml.elt "assembly" ~attrs:[ ("name", "e"); ("version", "1") ]
          [
            Xml.elt "class"
              ~attrs:
                [ ("name", "C"); ("namespace", "e");
                  ("guid", "00000000-0000-0000-0000-000000000001");
                  ("kind", "class"); ("assembly", "e") ]
              [
                Xml.elt "method"
                  ~attrs:
                    [ ("name", "m"); ("return", "int"); ("visibility", "public");
                      ("static", "false"); ("virtual", "false") ]
                  [ b ];
              ];
          ]
      in
      List.iter agree_asm (renderings m))
    bodies

(* Seeded byte-level mutations of every sample: flips, deletions,
   insertions and truncations, with and without a digest (without one,
   the semantic checks are reached). *)
let test_mutations () =
  let rng = Random.State.make [| 17 |] in
  let alphabet = "<>/=\"'&;#x!-?[] \nabcintvoidtruefalse019" in
  let mutate s =
    let s = ref s in
    for _ = 1 to 1 + Random.State.int rng 3 do
      let len = String.length !s in
      if len > 0 then begin
        let i = Random.State.int rng len in
        let c = alphabet.[Random.State.int rng (String.length alphabet)] in
        s :=
          match Random.State.int rng 5 with
          | 0 -> String.mapi (fun j d -> if j = i then c else d) !s
          | 1 -> String.sub !s 0 i ^ String.sub !s (i + 1) (len - i - 1)
          | 2 -> String.sub !s 0 i ^ String.make 1 c ^ String.sub !s i (len - i)
          | 3 ->
              String.mapi
                (fun j d ->
                  if j = i then
                    Char.chr (Char.code d lxor (1 lsl Random.State.int rng 8))
                  else d)
                !s
          | _ -> String.sub !s 0 i
      end
    done;
    !s
  in
  for _ = 1 to 12 do
    List.iter
      (fun d ->
        agree_td (mutate (Td.to_xml_string d));
        agree_td (mutate (Xml.to_string (Td.to_xml d))))
      descriptions;
    List.iter
      (fun a ->
        agree_asm (mutate (Axml.to_string a));
        agree_asm (mutate (Xml.to_string (Axml.to_xml a))))
      assemblies
  done

(* A flipped byte deep in the document is reported as what it is: the
   digest no longer matches, even where the flip also breaks a value the
   decoder checked first. *)
let test_error_precedence () =
  let d = List.hd descriptions in
  let s = Td.to_xml_string d in
  let flip_at s sub =
    let i =
      let n = String.length sub in
      let rec find i = if String.sub s i n = sub then i else find (i + 1) in
      find 0
    in
    String.mapi (fun j c -> if j = i then 'X' else c) s
  in
  let expect what got =
    match got with
    | Error e -> Alcotest.(check string) what "corrupt type description: digest mismatch" e
    | Ok _ -> Alcotest.failf "%s: accepted" what
  in
  expect "renamed attribute" (Td.of_xml_string (flip_at s "assembly="));
  expect "bad visibility" (Td.of_xml_string (flip_at s "public"));
  (* A syntax error anywhere outranks both. *)
  match Td.of_xml_string (flip_at s "assembly=" ^ "<") with
  | Error e ->
      Alcotest.(check bool) "syntax first" true
        (String.starts_with ~prefix:"XML parse error" e)
  | Ok _ -> Alcotest.fail "trailing garbage accepted"

let () =
  Alcotest.run "decoders"
    [
      ( "differential",
        [
          Alcotest.test_case "families and demo types" `Quick test_samples;
          Alcotest.test_case "variants" `Quick test_variants;
          Alcotest.test_case "expressions" `Quick test_expressions;
          Alcotest.test_case "mutations" `Quick test_mutations;
          Alcotest.test_case "error precedence" `Quick test_error_precedence;
        ] );
    ]
