(* The envelope digest as first written: every field rendered as a
   netstring ["<len>:<bytes>"], the length through [string_of_int] and
   the GUID through [Guid.to_string], each fragment chained through
   [Fnv.hash64 ~init]. The library streams the same bytes into one
   [Fnv.state] instead; this stays here as the reference it is compared
   with. *)

module Env = Pti_serial.Envelope
module Fnv = Pti_util.Fnv
module Guid = Pti_util.Guid
module Xml = Pti_xml.Xml

let field h s =
  let h = Fnv.hash64 ~init:h (string_of_int (String.length s)) in
  Fnv.hash64 ~init:(Fnv.hash64 ~init:h ":") s

let fold_entry h (e : Env.type_entry) =
  let h = field h e.Env.te_name in
  let h = field h (Guid.to_string e.Env.te_guid) in
  let h = field h e.Env.te_assembly in
  let h = field h e.Env.te_download_path in
  if e.Env.te_version > 0 then field h ("v" ^ string_of_int e.Env.te_version)
  else h

let fold_payload h = function
  | Env.Psoap x -> field (field h "soap") (Xml.to_string x)
  | Env.Pbinary p -> field (field h "binary") p

let digest64 (t : Env.t) =
  fold_payload
    (List.fold_left fold_entry Fnv.offset_basis t.Env.env_types)
    t.Env.env_payload

let digest t = Fnv.to_hex (digest64 t)

(* The classic XML envelope through a tree, as first written: [to_xml]
   builds the [Xml.t] and [of_xml] reads one back. The library writes
   and reads the same bytes without the tree; this pair stays here as
   the reference those are compared with, results and errors alike. *)

let entry_attrs (e : Env.type_entry) =
  [
    ("name", e.Env.te_name);
    ("guid", Guid.to_string e.Env.te_guid);
    ("assembly", e.Env.te_assembly);
    ("downloadPath", e.Env.te_download_path);
  ]
  @
  if e.Env.te_version > 0 then [ ("version", string_of_int e.Env.te_version) ]
  else []

let payload_to_xml = function
  | Env.Psoap x -> Xml.elt "payload" ~attrs:[ ("encoding", "soap") ] [ x ]
  | Env.Pbinary b ->
      Xml.elt "payload"
        ~attrs:[ ("encoding", "binary") ]
        [ Xml.text (Pti_util.Base64.encode b) ]

let to_xml (t : Env.t) =
  Xml.elt "envelope"
    ~attrs:[ ("digest", Env.digest t) ]
    (List.map (fun e -> Xml.elt "type" ~attrs:(entry_attrs e) []) t.Env.env_types
    @ [ payload_to_xml t.Env.env_payload ])

let attr name x =
  match Xml.attr name x with
  | Some v -> Ok v
  | None -> Error (Env.Malformed (Printf.sprintf "missing attribute %S" name))

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let entry_of_elt e =
  let* te_name = attr "name" e in
  let* guid_s = attr "guid" e in
  let* te_guid =
    match Guid.of_string guid_s with
    | Some g -> Ok g
    | None -> Error (Env.Malformed (Printf.sprintf "bad guid %S" guid_s))
  in
  let* te_assembly = attr "assembly" e in
  let* te_download_path = attr "downloadPath" e in
  let* te_version =
    match Xml.attr "version" e with
    | None -> Ok 0
    | Some s -> (
        match int_of_string_opt s with
        | Some v when v >= 0 -> Ok v
        | _ -> Error (Env.Malformed (Printf.sprintf "bad version %S" s)))
  in
  Ok { Env.te_name; te_guid; te_assembly; te_download_path; te_version }

let payload_of_xml x =
  let* payload_elt =
    match Xml.child "payload" x with
    | Some p -> Ok p
    | None -> Error (Env.Malformed "missing <payload>")
  in
  let* encoding = attr "encoding" payload_elt in
  match encoding with
  | "soap" -> (
      match
        List.filter
          (function Xml.Element _ -> true | _ -> false)
          (Xml.children payload_elt)
      with
      | [ inner ] -> Ok (Env.Psoap inner)
      | _ -> Error (Env.Malformed "soap payload expects one element"))
  | "binary" -> (
      match Pti_util.Base64.decode (Xml.text_content payload_elt) with
      | Some b -> Ok (Env.Pbinary b)
      | None -> Error (Env.Malformed "bad base64 payload"))
  | other -> Error (Env.Malformed (Printf.sprintf "unknown encoding %S" other))

let is_typeref = function Xml.Element ("typeref", _, _) -> true | _ -> false

let of_xml x =
  match Xml.tag x with
  | Some "envelope" when List.exists is_typeref (Xml.children x) ->
      Error (Env.Malformed "<typeref> in an XML envelope")
  | Some "envelope" ->
      let* env_types = map_result entry_of_elt (Xml.childs "type" x) in
      let* env_payload = payload_of_xml x in
      let t = { Env.env_types; env_payload } in
      let* () =
        match Xml.attr "digest" x with
        | None -> Ok ()
        | Some d when String.equal d (Env.digest t) -> Ok ()
        | Some _ -> Error (Env.Corrupt "envelope digest mismatch")
      in
      Ok t
  | Some other ->
      Error (Env.Malformed (Printf.sprintf "expected <envelope>, got <%s>" other))
  | None -> Error (Env.Malformed "expected an element")

let to_string t = Xml.to_string (to_xml t)

let of_string s =
  match Xml.parse s with
  | Error e -> Error (Env.Malformed (Format.asprintf "%a" Xml.pp_error e))
  | Ok x -> of_xml x
