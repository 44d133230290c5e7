(* Tests for the XML substrate: printing, parsing, escaping, queries. *)

module Xml = Pti_xml.Xml
module Digest_attr = Pti_xml.Digest_attr
module Fnv = Pti_util.Fnv
module Td = Pti_typedesc.Type_description
module Demo = Pti_demo.Demo_types

let test_print_compact () =
  let doc =
    Xml.elt "root"
      ~attrs:[ ("a", "1"); ("b", "x&y") ]
      [ Xml.leaf "child" "hi"; Xml.elt "empty" [] ]
  in
  Alcotest.(check string) "compact"
    "<root a=\"1\" b=\"x&amp;y\"><child>hi</child><empty/></root>"
    (Xml.to_string doc)

let test_escaping () =
  Alcotest.(check string) "text" "a&lt;b&gt;c&amp;d"
    (Xml.escape_text "a<b>c&d");
  Alcotest.(check string) "attr quotes" "&quot;&apos;"
    (Xml.escape_attr "\"'")

let test_parse_simple () =
  let x = Xml.parse_exn "<a p=\"1\"><b>text</b><c/></a>" in
  Alcotest.(check (option string)) "tag" (Some "a") (Xml.tag x);
  Alcotest.(check (option string)) "attr" (Some "1") (Xml.attr "p" x);
  Alcotest.(check string) "text" "text"
    (Xml.text_content (Xml.child_exn "b" x));
  Alcotest.(check int) "children" 2 (List.length (Xml.children x))

let test_parse_entities () =
  let x = Xml.parse_exn "<a>&lt;tag&gt; &amp; &quot;quotes&quot; &#65;&#x42;</a>" in
  Alcotest.(check string) "entities" "<tag> & \"quotes\" AB" (Xml.text_content x)

let test_parse_cdata_comment () =
  let x = Xml.parse_exn "<a><!-- note --><![CDATA[<raw&stuff>]]></a>" in
  Alcotest.(check string) "cdata preserved" "<raw&stuff>" (Xml.text_content x)

let test_parse_prolog_doctype () =
  let x =
    Xml.parse_exn
      "<?xml version=\"1.0\"?><!DOCTYPE a><!-- hello --><a/><!-- bye -->"
  in
  Alcotest.(check (option string)) "root" (Some "a") (Xml.tag x)

let test_parse_errors () =
  List.iter
    (fun s ->
      match Xml.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should not parse: %s" s)
    [
      ""; "<a>"; "<a></b>"; "<a attr></a>"; "text only"; "<a/><b/>";
      "<a>&unknown;</a>"; "<a><![CDATA[open</a>";
    ]

(* XML 1.0 "Unique Att Spec". The reader used to keep both and [attr]
   answered with the first, so one value could be shown while another
   was checked. *)
let test_duplicate_attributes_rejected () =
  List.iter
    (fun s ->
      match Xml.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should not parse: %s" s)
    [ "<a k=\"1\" k=\"2\"/>"; "<a><b x='1' y='2' x='1'></b></a>" ];
  match Xml.parse "<a k=\"1\" kk=\"2\"><b k=\"3\"/></a>" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "distinct names rejected: %a" Xml.pp_error e

let test_path_and_childs () =
  let x = Xml.parse_exn "<a><b><c k=\"v\"/></b><b/><d/></a>" in
  (match Xml.path [ "b"; "c" ] x with
  | Some c -> Alcotest.(check (option string)) "path attr" (Some "v") (Xml.attr "k" c)
  | None -> Alcotest.fail "path failed");
  Alcotest.(check int) "childs count" 2 (List.length (Xml.childs "b" x));
  Alcotest.(check bool) "path miss" true (Xml.path [ "z" ] x = None)

let test_pretty_roundtrip () =
  let doc =
    Xml.elt "envelope"
      [
        Xml.elt "type" ~attrs:[ ("name", "Person") ] [];
        Xml.elt "payload" [ Xml.leaf "obj" "data" ];
      ]
  in
  let pretty = Xml.to_string_pretty doc in
  Alcotest.(check bool) "has newlines" true (String.contains pretty '\n');
  let reparsed = Xml.parse_exn pretty in
  (* The pretty form adds whitespace text nodes; compare structure by
     element tags only. *)
  let rec tags x =
    match x with
    | Xml.Element (t, _, cs) -> t :: List.concat_map tags cs
    | _ -> []
  in
  Alcotest.(check (list string)) "structure preserved" (tags doc) (tags reparsed)

let test_attr_escaping_roundtrip () =
  let doc =
    Xml.elt "a" ~attrs:[ ("k", "quotes \" ' and <tags> & amps") ] []
  in
  let reparsed = Xml.parse_exn (Xml.to_string doc) in
  Alcotest.(check (option string)) "attribute survives"
    (Some "quotes \" ' and <tags> & amps")
    (Xml.attr "k" reparsed)

let test_size_bytes () =
  let doc = Xml.leaf "a" "xyz" in
  Alcotest.(check int) "size" (String.length "<a>xyz</a>") (Xml.size_bytes doc)

(* Generator for random XML trees with printable text. *)
let gen_xml =
  let open QCheck.Gen in
  let tag_g = oneofl [ "a"; "b"; "item"; "node"; "x1" ] in
  let text_g =
    map
      (fun s -> String.concat "" (List.map (String.make 1) s))
      (small_list (oneofl [ 'a'; 'z'; '<'; '&'; '>'; '"'; ' '; '\'' ]))
  in
  let attr_g = pair (oneofl [ "k"; "key"; "n" ]) text_g in
  (* Attributes need distinct names within an element. *)
  let attrs_g =
    map
      (fun l ->
        let seen = Hashtbl.create 4 in
        List.filter
          (fun (k, _) ->
            if Hashtbl.mem seen k then false
            else begin
              Hashtbl.add seen k ();
              true
            end)
          l)
      (small_list attr_g)
  in
  fix
    (fun self depth ->
      if depth = 0 then
        map2 (fun t s -> Xml.leaf t s) tag_g text_g
      else
        map3
          (fun t attrs kids -> Xml.elt t ~attrs kids)
          tag_g attrs_g
          (list_size (int_bound 3) (self (depth - 1))))
    2

(* Adjacent text nodes merge on reparse; normalize before comparing. *)
let rec normalize x =
  match x with
  | Xml.Element (t, attrs, cs) ->
      let cs = List.filter_map normalize_child cs in
      let rec merge = function
        | Xml.Text a :: Xml.Text b :: rest -> merge (Xml.Text (a ^ b) :: rest)
        | c :: rest -> c :: merge rest
        | [] -> []
      in
      Xml.Element (t, attrs, merge cs)
  | other -> other

and normalize_child c =
  match c with
  | Xml.Text "" -> None
  | Xml.Cdata s -> Some (Xml.Text s)  (* cdata and text are equivalent *)
  | Xml.Comment _ -> None
  | _ -> Some (normalize c)

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip" ~count:300
    (QCheck.make gen_xml) (fun doc ->
      match Xml.parse (Xml.to_string doc) with
      | Error _ -> false
      | Ok parsed -> normalize parsed = normalize doc)

(* ------------------------ streamed digests ------------------------ *)

(* The compact rendering rules, written out independently of the
   library's renderer. *)
let rec naive_render = function
  | Xml.Text s -> Xml.escape_text s
  | Xml.Cdata s -> "<![CDATA[" ^ s ^ "]]>"
  | Xml.Comment s -> "<!--" ^ s ^ "-->"
  | Xml.Element (tag, attrs, cs) ->
      let attrs =
        String.concat ""
          (List.map
             (fun (k, v) -> Printf.sprintf " %s=\"%s\"" k (Xml.escape_attr v))
             attrs)
      in
      if cs = [] then Printf.sprintf "<%s%s/>" tag attrs
      else
        Printf.sprintf "<%s%s>%s</%s>" tag attrs
          (String.concat "" (List.map naive_render cs))
          tag

(* The definition the streamed digest must keep: render the document
   with the root's digest attribute removed, then hash the string. *)
let reference_digest x =
  let stripped =
    match x with
    | Xml.Element (tag, attrs, cs) ->
        Xml.Element (tag, List.filter (fun (k, _) -> k <> "digest") attrs, cs)
    | other -> other
  in
  Fnv.hash_hex (Xml.to_string stripped)

(* Trees exercising every rendering rule: text and attribute values that
   need escaping, bytes >= 0x80, CDATA, comments, empty elements, and
   [digest] attributes below the root as well as on it. *)
let gen_digest_doc =
  let open QCheck.Gen in
  let str_g =
    map
      (fun l -> String.concat "" l)
      (small_list
         (oneofl [ "a"; "Z"; "<"; ">"; "&"; "\""; "'"; " "; "\xc3\xa9"; "]]" ]))
  in
  let attr_g = pair (oneofl [ "k"; "digest"; "name"; "v" ]) str_g in
  let tag_g = oneofl [ "a"; "typeDescription"; "field" ] in
  let node_g =
    fix (fun self depth ->
        let leaf =
          oneof
            [
              map Xml.text str_g;
              map (fun s -> Xml.Cdata s) (oneofl [ ""; "x<y&z"; "]]" ]);
              map (fun s -> Xml.Comment s) (oneofl [ ""; " note "; "<&>" ]);
            ]
        in
        if depth = 0 then leaf
        else
          frequency
            [
              (1, leaf);
              ( 2,
                map3
                  (fun tag attrs kids -> Xml.elt tag ~attrs kids)
                  tag_g (small_list attr_g)
                  (list_size (int_bound 3) (self (depth - 1))) );
            ])
  in
  map3
    (fun tag attrs kids -> Xml.elt tag ~attrs kids)
    tag_g (small_list attr_g)
    (list_size (int_bound 4) (node_g 3))

let prop_streamed_digest_matches_rendering =
  QCheck.Test.make ~name:"streamed digest = hash of the stripped rendering"
    ~count:500
    (QCheck.make ~print:(fun x -> Xml.to_string x) gen_digest_doc)
    (fun x ->
      let expected = reference_digest x in
      let added = Digest_attr.add x in
      let with_digest d =
        match x with
        | Xml.Element (tag, attrs, cs) ->
            Xml.Element
              ( tag,
                ("digest", d)
                :: List.filter (fun (k, _) -> k <> "digest") attrs,
                cs )
        | other -> other
      in
      String.equal (Xml.to_string x) (naive_render x)
      && Xml.attr "digest" added = Some expected
      && Result.is_ok (Digest_attr.verify (with_digest expected))
      && Result.is_error (Digest_attr.verify (with_digest ("0" ^ expected))))

(* --------------------------- allocation ---------------------------- *)

(* Ceilings on a fixed type-description document (newsw.Person, 1.8 KB),
   measured when markup probing went in place and the digest started
   streaming (1 526 and 35 words per call, from 3 990 and 1 217), plus
   10 % headroom. The reader allocates the tree and its strings; the
   digest check a constant few dozen words, whatever the document's
   size. *)
let test_reader_allocation () =
  let doc =
    Td.to_xml_string
      (Td.of_class
         (Pti_cts.Registry.find_exn
            (Demo.fresh_registry [ Demo.news_assembly () ])
            Demo.news_person))
  in
  let tree = Xml.parse_exn doc in
  Alloc.check_ceiling "Xml.parse" ~ceiling:1680. (fun () -> Xml.parse doc);
  Alloc.check_ceiling "Digest_attr.verify" ~ceiling:39. (fun () ->
      Digest_attr.verify tree)

let () =
  Alcotest.run "xml"
    [
      ( "print",
        [
          Alcotest.test_case "compact" `Quick test_print_compact;
          Alcotest.test_case "escaping" `Quick test_escaping;
          Alcotest.test_case "pretty" `Quick test_pretty_roundtrip;
          Alcotest.test_case "size" `Quick test_size_bytes;
          Alcotest.test_case "attr escaping" `Quick
            test_attr_escaping_roundtrip;
        ] );
      ( "parse",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "cdata+comments" `Quick test_parse_cdata_comment;
          Alcotest.test_case "prolog" `Quick test_parse_prolog_doctype;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "queries" `Quick test_path_and_childs;
          Alcotest.test_case "duplicate attributes" `Quick
            test_duplicate_attributes_rejected;
        ] );
      ( "digest",
        [
          QCheck_alcotest.to_alcotest prop_streamed_digest_matches_rendering;
          Alcotest.test_case "allocation gate" `Quick test_reader_allocation;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_print_parse_roundtrip ]);
    ]
