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

(* XML 1.0 [66]: a character reference is [&#[0-9]+;] or
   [&#x[0-9a-fA-F]+;], and [2]: it must name a legal Char. The reader
   used to hand the digits to [int_of_string], which also took OCaml's
   own literal syntax and any code point. *)
let test_char_references () =
  List.iter
    (fun s ->
      match Xml.parse s with
      | Error _ -> ()
      | Ok x ->
          Alcotest.failf "should not parse: %s (decoded %S)" s
            (Xml.text_content x))
    [
      "<a>&#0x41;</a>"; "<a>&#+65;</a>"; "<a>&#0b1000001;</a>";
      "<a>&#0o101;</a>"; "<a>&#1_0_0;</a>"; "<a>&#0;</a>";
      "<a>&#xD800;</a>"; "<a>&#xFFFE;</a>"; "<a>&#X41;</a>"; "<a>&#-1;</a>";
      "<a>&#x110000;</a>"; "<a>&#99999999999999999999999;</a>";
      "<a>&#x 41;</a>"; "<a k=\"&#0x41;\"/>"; "<a k=\"&#1;\"/>";
    ];
  List.iter
    (fun (s, expected) ->
      match Xml.parse s with
      | Ok x -> Alcotest.(check string) s expected (Xml.text_content x)
      | Error e -> Alcotest.failf "%s: %a" s Xml.pp_error e)
    [
      ("<a>&#65;&#x42;</a>", "AB");
      ("<a>&#0065;&#x0043;&#x4a;</a>", "ACJ");
      ("<a>&#9;&#xA;&#13;</a>", "\t\n\r");
      ("<a>&#xE9;&#xD7FF;&#xE000;&#xFFFD;</a>",
       "\xc3\xa9\xed\x9f\xbf\xee\x80\x80\xef\xbf\xbd");
      ("<a>&#x10000;&#x10FFFF;</a>", "\xf0\x90\x80\x80\xf4\x8f\xbf\xbf");
    ]

(* Messages and byte positions of syntax errors, as the recursive-descent
   parser reported them before the grammar moved into the pull reader. *)
let test_error_positions () =
  List.iter
    (fun (s, expected) ->
      let got =
        match Xml.parse s with
        | Ok _ -> None
        | Error e -> Some (e.Xml.position, e.Xml.message)
      in
      Alcotest.(check (option (pair int string))) s expected got)
    [
      ("", Some (0, "empty document"));
      ("   ", Some (3, "empty document"));
      ("text only", Some (0, "expected \"<\""));
      ("<", Some (1, "expected a name"));
      ("<a", Some (2, "expected \">\""));
      ("<a>", Some (3, "unterminated element"));
      ("<a></b>", Some (6, "mismatched closing tag </b> for <a>"));
      ("<a attr></a>", Some (7, "expected \"=\""));
      ("<a x=1/>", Some (5, "expected quoted value"));
      ("<a x=\"1/>", Some (9, "unterminated attribute value"));
      ("<a x=\"&amp/>\"/>", Some (15, "unterminated entity reference"));
      ("<a/><b/>", Some (4, "trailing content after root"));
      ("<a>&unknown;</a>", Some (12, "unknown entity &unknown;"));
      ("<a>&#;</a>", Some (6, "unknown entity &#;"));
      ("<a><![CDATA[open</a>", Some (20, "expected \"]]>\""));
      ("<a><!-- open</a>", Some (16, "expected \"-->\""));
      ("<a><?pi</a>", Some (11, "expected \"?>\""));
      ("<?xml", Some (5, "expected \"?>\""));
      ("<!-- c", Some (6, "expected \"-->\""));
      ("<a></a >x", Some (8, "trailing content after root"));
      ("<a></ab>", Some (7, "mismatched closing tag </ab> for <a>"));
      ("<a></>", Some (5, "expected a name"));
      ("<a k=\"1\" k=\"2\"/>", Some (9, "duplicate attribute \"k\""));
      ("<a><b></a></b>", Some (9, "mismatched closing tag </a> for <b>"));
      ("<a>&#x;</a>", Some (7, "bad character reference"));
      ("<a>&#1114112;</a>", Some (13, "character out of range"));
      ("<a b='&lt;' c=\"&gt\"/>", Some (21, "unterminated entity reference"));
      ("<1a/>", Some (1, "expected a name"));
      ("<a/><!-- trailing", Some (17, "expected \"-->\""));
      ("<a/>  <?pi?>", Some (6, "trailing content after root"));
      ("<?xml version=\"1.0\"?><!DOCTYPE a><!-- c --><a/><!-- t -->", None);
    ]

(* The token stream: a self-closing tag still yields its End, character
   data arrives as its own tokens, the prolog and PIs are skipped. *)
let test_reader_tokens () =
  let r =
    Xml.Reader.create
      "<?xml version=\"1.0\"?><a x=\"1&amp;2\"><b/>t&lt;<!--c--><?p?><![CDATA[d]]></a>"
  in
  let seen = ref [] in
  let rec go () =
    let tok = Xml.Reader.next r in
    let s =
      match tok with
      | Xml.Reader.Start ->
          let i = Xml.Reader.attr r "x" in
          Printf.sprintf "<%s%s>" (Xml.Reader.name r)
            (if i < 0 then "" else " x=" ^ Xml.Reader.value r i)
      | Xml.Reader.End -> Printf.sprintf "</%s>" (Xml.Reader.name r)
      | Xml.Reader.Text -> "T:" ^ Xml.Reader.text r
      | Xml.Reader.Cdata -> "D:" ^ Xml.Reader.text r
      | Xml.Reader.Comment -> "C:" ^ Xml.Reader.text r
      | Xml.Reader.Eof -> "eof"
    in
    seen := s :: !seen;
    if tok <> Xml.Reader.Eof then go ()
  in
  go ();
  Alcotest.(check (list string)) "tokens"
    [ "<a x=1&2>"; "<b>"; "</b>"; "T:t<"; "C:c"; "D:d"; "</a>"; "eof" ]
    (List.rev !seen)

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

(* The reader's streamed digest is the tree's: the hash of the compact
   rendering of the parsed tree, its root digest stripped. The documents
   are rendered compactly, and also with a digest added, moved behind
   the other attributes, and corrupted. *)
let streamed_digest ?(digest = Digest_attr.attr_name) s =
  let r = Xml.Reader.create ~digest s in
  Xml.Reader.drain r;
  r

(* Parseable documents repeat no attribute name within a tag. *)
let rec unique_attrs = function
  | Xml.Element (tag, attrs, cs) ->
      let rec keep_first seen = function
        | [] -> []
        | (k, v) :: rest ->
            if List.mem k seen then keep_first seen rest
            else (k, v) :: keep_first (k :: seen) rest
      in
      Xml.Element (tag, keep_first [] attrs, List.map unique_attrs cs)
  | other -> other

let prop_reader_digest =
  QCheck.Test.make ~name:"reader digest = Xml.hash of the stripped parse"
    ~count:500
    (QCheck.make ~print:(fun x -> Xml.to_string x)
       (QCheck.Gen.map unique_attrs gen_digest_doc))
    (fun x ->
      let s = Xml.to_string x in
      let parsed = Xml.parse_exn s in
      let expected = Xml.hash (Digest_attr.strip parsed) in
      let r = streamed_digest s in
      (* Signed as parsed: an empty text node does not survive a
         reparse, so a digest over [x] itself need not verify. *)
      let signed = Digest_attr.add parsed in
      let last_digest =
        match signed with
        | Xml.Element (tag, (k, v) :: attrs, cs) ->
            Xml.Element (tag, attrs @ [ (k, v) ], cs)
        | other -> other
      in
      let corrupt =
        match signed with
        | Xml.Element (tag, (k, v) :: attrs, cs) ->
            Xml.Element (tag, (k, String.map (function '0' -> '1' | _ -> '0') v) :: attrs, cs)
        | other -> other
      in
      let check_ok t =
        Digest_attr.check (streamed_digest (Xml.to_string t)) = Ok ()
      in
      Int64.equal (Xml.Reader.digest r) expected
      && Digest_attr.check r
         = Result.map (fun _ -> ()) (Digest_attr.verify parsed)
      && check_ok signed && check_ok last_digest
      && Result.is_error
           (Digest_attr.check (streamed_digest (Xml.to_string corrupt))))

(* Canonical-form corner cases: what the tree would hash, written out. *)
let test_reader_digest_cases () =
  List.iter
    (fun (doc, canonical) ->
      Alcotest.(check string) doc
        (Fnv.to_hex (Fnv.hash64 canonical))
        (Fnv.to_hex (Xml.Reader.digest (streamed_digest doc))))
    [
      ("<a></a>", "<a/>");
      ("<a><?pi x?></a>", "<a/>");
      ("<!-- p --><a  k = 'v' digest=\"x\" ></a ><!-- t -->", "<a k=\"v\"/>");
      ("<a k=\"&#x3c;&#34;'\">&#62;&quot;&apos;</a>",
       "<a k=\"&lt;&quot;&apos;\">&gt;\"'</a>");
      ("<a><![CDATA[<&>]]><!--<&>--></a>", "<a><![CDATA[<&>]]><!--<&>--></a>");
      ("<a><b digest=\"1\"/></a>", "<a><b digest=\"1\"/></a>");
      ("<a>&#xE9;</a>", "<a>\xc3\xa9</a>");
    ]

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
          Alcotest.test_case "character references" `Quick
            test_char_references;
          Alcotest.test_case "error positions" `Quick test_error_positions;
          Alcotest.test_case "reader tokens" `Quick test_reader_tokens;
        ] );
      ( "digest",
        [
          QCheck_alcotest.to_alcotest prop_streamed_digest_matches_rendering;
          QCheck_alcotest.to_alcotest prop_reader_digest;
          Alcotest.test_case "reader digest corner cases" `Quick
            test_reader_digest_cases;
          Alcotest.test_case "allocation gate" `Quick test_reader_allocation;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_print_parse_roundtrip ]);
    ]
