open Pti_cts
module Xml = Pti_xml.Xml
module Guid = Pti_util.Guid
module Fnv = Pti_util.Fnv
module B64 = Pti_util.Base64

type codec = Soap | Binary

type type_entry = {
  te_name : string;
  te_guid : Guid.t;
  te_assembly : string;
  te_download_path : string;
  te_version : int;
      (* Version of the carrying assembly on its publisher's chain;
         0 = unversioned (pre-evolution sender). Kept out of canonical
         bytes and wire frames when 0 so pre-evolution digests and
         encodings are unchanged. *)
}

type payload = Psoap of Xml.t | Pbinary of string

type t = { env_types : type_entry list; env_payload : payload }

type error =
  | Malformed of string
  | Unknown_type of string
  | Corrupt of string
  | Unknown_handles of int list

let pp_error ppf = function
  | Malformed m -> Format.fprintf ppf "malformed envelope: %s" m
  | Unknown_type ty -> Format.fprintf ppf "unknown type %S" ty
  | Corrupt m -> Format.fprintf ppf "corrupt envelope: %s" m
  | Unknown_handles hs ->
      Format.fprintf ppf "unknown type handles [%s]"
        (String.concat "; " (List.map string_of_int hs))

(* The integrity digest covers the semantic fields of the envelope, not
   its XML rendering, so the check is immune to whitespace/attribute-order
   differences between writer and reader. Every field is length-prefixed
   (netstring style: ["<len>:<bytes>"]): the binary payload is arbitrary
   bytes, so no in-band separator is safe — a 0x00/0x01 scheme let two
   distinct envelopes share a digest. Fields are folded straight into
   the FNV-1a state; the canonical byte string is never built. *)
let field h s =
  let h = Fnv.hash64 ~init:h (string_of_int (String.length s)) in
  Fnv.hash64 ~init:(Fnv.hash64 ~init:h ":") s

let fold_entry h e =
  let h = field h e.te_name in
  let h = field h (Guid.to_string e.te_guid) in
  let h = field h e.te_assembly in
  let h = field h e.te_download_path in
  (* Versioned entries fold the version into the digest; version 0 stays
     absent so pre-evolution envelopes keep their digests. *)
  if e.te_version > 0 then field h ("v" ^ string_of_int e.te_version) else h

let fold_payload h = function
  | Psoap x -> field (field h "soap") (Xml.to_string x)
  | Pbinary p -> field (field h "binary") p

let digest64 t =
  fold_payload (List.fold_left fold_entry Fnv.offset_basis t.env_types)
    t.env_payload

let digest t = Fnv.to_hex (digest64 t)

(* Distinct class names reachable from a value, in first-visit order. *)
let graph_classes v =
  let seen_obj = Hashtbl.create 16 in
  let found = ref [] in
  let rec go v =
    match v with
    | Value.Vnull | Value.Vbool _ | Value.Vint _ | Value.Vfloat _
    | Value.Vstring _ | Value.Vchar _ ->
        ()
    | Value.Vproxy p -> go p.Value.px_target
    | Value.Varr a -> Array.iter go a.Value.items
    | Value.Vobj o ->
        if not (Hashtbl.mem seen_obj o.Value.oid) then begin
          Hashtbl.add seen_obj o.Value.oid ();
          if not (List.exists (Pti_util.Strutil.equal_ci o.Value.cls) !found)
          then found := o.Value.cls :: !found;
          (* Visit fields in name order: [Hashtbl.iter] order depends on
             stdlib hash internals, which would leak into envelope bytes
             (and digests) via the type-entry list. *)
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) o.Value.fields []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          |> List.iter (fun (_, v) -> go v)
        end
  in
  go v;
  List.rev !found

let make ?(version_of = fun ~assembly:_ -> 0) reg ~codec ~download_path v =
  let classes = graph_classes v in
  let env_types =
    List.map
      (fun cls ->
        match Registry.find reg cls with
        | None ->
            invalid_arg
              (Printf.sprintf "Envelope.make: class %S not registered" cls)
        | Some cd ->
            {
              te_name = Meta.qualified_name cd;
              te_guid = cd.Meta.td_guid;
              te_assembly = cd.Meta.td_assembly;
              te_download_path = download_path ~assembly:cd.Meta.td_assembly;
              te_version = version_of ~assembly:cd.Meta.td_assembly;
            })
      classes
  in
  (* Deterministic emission order: the root's class stays first (the
     receiver's fast path and eager prefetch key off it), the tail is
     sorted by qualified name. *)
  let env_types =
    match env_types with
    | root :: rest ->
        root
        :: List.sort (fun a b -> String.compare a.te_name b.te_name) rest
    | [] -> []
  in
  let env_payload =
    match codec with
    | Soap -> Psoap (Soap_ser.encode_xml v)
    | Binary -> Pbinary (Bin_ser.encode v)
  in
  { env_types; env_payload }

let required_classes t = List.map (fun e -> e.te_name) t.env_types

let payload_codec t =
  match t.env_payload with Psoap _ -> Soap | Pbinary _ -> Binary

(* Version-pinned class resolution: a payload class named by the
   envelope decodes against the exact description the sender stamped (by
   GUID), not whatever the name happens to resolve to at decode time — a
   receiver that upgraded mid-flight must not decode an old envelope
   against the new version. Names outside the envelope (or GUIDs the
   registry never learned) fall back to by-name lookup, the
   pre-evolution behavior. *)
let pinned_resolve reg t name =
  let pinned =
    List.find_opt
      (fun e -> Pti_util.Strutil.equal_ci e.te_name name)
      t.env_types
  in
  match pinned with
  | Some e -> (
      match Registry.find_by_guid reg e.te_guid with
      | Some cd -> Some cd
      | None -> Registry.find reg name)
  | None -> Registry.find reg name

let decode_payload reg t =
  let resolve = pinned_resolve reg t in
  match t.env_payload with
  | Psoap x -> (
      match Soap_ser.decode_xml ~resolve reg x with
      | Ok v -> Ok v
      | Error (Soap_ser.Malformed m) -> Error (Malformed m)
      | Error (Soap_ser.Unknown_type ty) -> Error (Unknown_type ty))
  | Pbinary b -> (
      match Bin_ser.decode ~resolve reg b with
      | Ok v -> Ok v
      | Error (Bin_ser.Malformed m) -> Error (Malformed m)
      | Error (Bin_ser.Unknown_type ty) -> Error (Unknown_type ty)
      | Error (Bin_ser.Corrupt m) -> Error (Corrupt m))

let entry_attrs e =
  [
    ("name", e.te_name);
    ("guid", Guid.to_string e.te_guid);
    ("assembly", e.te_assembly);
    ("downloadPath", e.te_download_path);
  ]
  @ if e.te_version > 0 then [ ("version", string_of_int e.te_version) ] else []

let payload_to_xml = function
  | Psoap x -> Xml.elt "payload" ~attrs:[ ("encoding", "soap") ] [ x ]
  | Pbinary b ->
      Xml.elt "payload"
        ~attrs:[ ("encoding", "binary") ]
        [ Xml.text (B64.encode b) ]

let to_xml t =
  let open Xml in
  elt "envelope"
    ~attrs:[ ("digest", digest t) ]
    (List.map (fun e -> elt "type" ~attrs:(entry_attrs e) []) t.env_types
    @ [ payload_to_xml t.env_payload ])

let attr name x =
  match Xml.attr name x with
  | Some v -> Ok v
  | None -> Error (Malformed (Printf.sprintf "missing attribute %S" name))

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
    | None -> Error (Malformed (Printf.sprintf "bad guid %S" guid_s))
  in
  let* te_assembly = attr "assembly" e in
  let* te_download_path = attr "downloadPath" e in
  (* Optional: absent on envelopes from pre-evolution senders. *)
  let* te_version =
    match Xml.attr "version" e with
    | None -> Ok 0
    | Some s -> (
        match int_of_string_opt s with
        | Some v when v >= 0 -> Ok v
        | _ -> Error (Malformed (Printf.sprintf "bad version %S" s)))
  in
  Ok { te_name; te_guid; te_assembly; te_download_path; te_version }

let payload_of_xml x =
  let* payload_elt =
    match Xml.child "payload" x with
    | Some p -> Ok p
    | None -> Error (Malformed "missing <payload>")
  in
  let* encoding = attr "encoding" payload_elt in
  match encoding with
  | "soap" -> (
      match
        List.filter
          (function Xml.Element _ -> true | _ -> false)
          (Xml.children payload_elt)
      with
      | [ inner ] -> Ok (Psoap inner)
      | _ -> Error (Malformed "soap payload expects one element"))
  | "binary" -> (
      match B64.decode (Xml.text_content payload_elt) with
      | Some b -> Ok (Pbinary b)
      | None -> Error (Malformed "bad base64 payload"))
  | other -> Error (Malformed (Printf.sprintf "unknown encoding %S" other))

let of_xml x =
  match Xml.tag x with
  | Some "envelope" ->
      let* env_types = map_result entry_of_elt (Xml.childs "type" x) in
      let* env_payload = payload_of_xml x in
      let t = { env_types; env_payload } in
      (* An envelope written before digests existed (no attribute) is
         accepted as-is; a present digest must match the recomputed one. *)
      let* () =
        match Xml.attr "digest" x with
        | None -> Ok ()
        | Some d when String.equal d (digest t) -> Ok ()
        | Some _ -> Error (Corrupt "envelope digest mismatch")
      in
      Ok t
  | Some other ->
      Error (Malformed (Printf.sprintf "expected <envelope>, got <%s>" other))
  | None -> Error (Malformed "expected an element")

let to_string t = Xml.to_string (to_xml t)

let of_string s =
  match Xml.parse s with
  | Error e -> Error (Malformed (Format.asprintf "%a" Xml.pp_error e))
  | Ok x -> of_xml x

let size_bytes t = String.length (to_string t)

(* ------------------- negotiated type handles ----------------------- *)

(* A handle-encoded envelope replaces repeat type entries with
   [<typeref handle="n"/>] references into a per-link table negotiated
   on first use ([`Bind] ships the full entry together with its handle).
   Two digests guard it: [digest] is semantic — computed over the fully
   reconstructed envelope, so a stale or corrupted table binding can
   never pass as an intact delivery — and [wire] covers the literal
   document content (including the bare handle numbers), so frame-level
   integrity checks need no table at all. *)

type handle_form = [ `Plain | `Bind of int | `Ref of int ]

let wire_digest forms payload =
  let slot h (form, e) =
    match (form : handle_form) with
    | `Plain -> fold_entry (field h "P") e
    | `Bind n -> fold_entry (field (field h "B") (string_of_int n)) e
    | `Ref n -> field (field h "R") (string_of_int n)
  in
  Fnv.to_hex (fold_payload (List.fold_left slot Fnv.offset_basis forms) payload)

let to_xml_h t ~form =
  let forms = List.map (fun e -> ((form e : handle_form), e)) t.env_types in
  let open Xml in
  elt "envelope"
    ~attrs:
      [ ("digest", digest t); ("wire", wire_digest forms t.env_payload) ]
    (List.map
       (fun (f, e) ->
         match f with
         | `Plain -> elt "type" ~attrs:(entry_attrs e) []
         | `Bind h ->
             elt "type"
               ~attrs:(entry_attrs e @ [ ("handle", string_of_int h) ])
               []
         | `Ref h -> elt "typeref" ~attrs:[ ("handle", string_of_int h) ] [])
       forms
    @ [ payload_to_xml t.env_payload ])

let to_string_h_xml t ~form = Xml.to_string (to_xml_h t ~form)

let handle_attr e =
  match Xml.attr "handle" e with
  | None -> Ok None
  | Some s -> (
      match int_of_string_opt s with
      | Some h when h > 0 -> Ok (Some h)
      | _ -> Error (Malformed (Printf.sprintf "bad handle %S" s)))

(* [resolve] consults the per-link table for [`Ref] handles; bindings
   shipped earlier in the same envelope are visible to later refs. The
   result carries the new bindings so the caller can install them. *)
let of_xml_h ~resolve x =
  match Xml.tag x with
  | Some "envelope" ->
      let* parsed =
        map_result
          (fun e ->
            match Xml.tag e with
            | Some "type" ->
                let* entry = entry_of_elt e in
                let* h = handle_attr e in
                Ok
                  (match h with
                  | None -> (`Plain, `Entry entry)
                  | Some h -> (`Bind h, `Entry entry))
            | Some "typeref" ->
                let* h = handle_attr e in
                let* h =
                  match h with
                  | Some h -> Ok h
                  | None -> Error (Malformed "typeref without handle")
                in
                Ok (`Ref h, `Handle h)
            | _ -> Ok (`Skip, `Skip))
          (List.filter
             (function
               | Xml.Element (t, _, _) -> t = "type" || t = "typeref"
               | _ -> false)
             (Xml.children x))
      in
      let* env_payload = payload_of_xml x in
      (* Wire-level integrity first: it needs no table, and a flipped
         handle number must surface as [Corrupt], not as a spurious
         renegotiation (or worse, a wrong-table hit). *)
      let forms =
        List.filter_map
          (fun (form, what) ->
            match (form, what) with
            | `Plain, `Entry e -> Some ((`Plain : handle_form), e)
            | `Bind h, `Entry e -> Some (`Bind h, e)
            | `Ref h, `Handle _ ->
                Some
                  ( `Ref h,
                    {
                      te_name = "";
                      te_guid = Guid.nil;
                      te_assembly = "";
                      te_download_path = "";
                      te_version = 0;
                    } )
            | _ -> None)
          parsed
      in
      let* () =
        match Xml.attr "wire" x with
        | None -> Ok ()
        | Some d when String.equal d (wire_digest forms env_payload) -> Ok ()
        | Some _ -> Error (Corrupt "envelope wire digest mismatch")
      in
      let bindings =
        List.filter_map
          (function `Bind h, `Entry e -> Some (h, e) | _ -> None)
          parsed
      in
      let unknown = ref [] in
      let env_types =
        List.filter_map
          (fun (form, what) ->
            match (form, what) with
            | _, `Entry e -> Some e
            | `Ref h, `Handle _ -> (
                match List.assoc_opt h bindings with
                | Some e -> Some e
                | None -> (
                    match resolve h with
                    | Some e -> Some e
                    | None ->
                        if not (List.mem h !unknown) then
                          unknown := h :: !unknown;
                        None))
            | _ -> None)
          parsed
      in
      let* () =
        match List.rev !unknown with
        | [] -> Ok ()
        | hs -> Error (Unknown_handles hs)
      in
      let t = { env_types; env_payload } in
      (* Semantic digest over the reconstruction: a wrong binding in the
         link table can never produce an intact-looking envelope. *)
      let* () =
        match Xml.attr "digest" x with
        | None -> Ok ()
        | Some d when String.equal d (digest t) -> Ok ()
        | Some _ -> Error (Corrupt "envelope digest mismatch")
      in
      Ok (t, bindings)
  | Some other ->
      Error (Malformed (Printf.sprintf "expected <envelope>, got <%s>" other))
  | None -> Error (Malformed "expected an element")

(* ---------------- compact binary wire form (PTIE) ------------------ *)

(* Handle-encoded envelopes go on the wire in a compact binary frame:
   XML plus base64 costs ~45% over the raw bytes, which defeats the
   point of shipping two-byte type refs. Layout:

     "PTIE\x01" | fnv64(body) | body
     body  = digest8 | varint n | slot* | payload | versions?
     slot  = 0x00                                (plain, 4 strings)
           | 0x01 varint handle, 4 strings       (bind)
           | 0x02 varint handle                  (ref)
     strings are name, guid, assembly, downloadPath (varint-prefixed)
     payload = u8 codec (0 soap / 1 binary) | string
     versions = varint per entry-carrying slot, wire order — emitted
           only when some entry is versioned; a decoder probes for the
           block with [at_end], so pre-evolution frames (no block, all
           versions 0) decode unchanged in both directions

   The frame checksum replaces the XML form's [wire] digest (literal
   content integrity, no table needed); [digest8] is the raw semantic
   digest over the reconstructed envelope, serving exactly like the
   XML [digest] attribute. The XML handle form remains accepted on
   decode as the interop fallback. *)

module W = Bytes_io.Writer
module R = Bytes_io.Reader

let bin_magic = "PTIE\x01"

let to_string_h t ~form =
  let w = W.create () in
  W.int64_be w (digest64 t);
  W.varint w (List.length t.env_types);
  let entry e =
    W.string w e.te_name;
    W.string w (Guid.to_string e.te_guid);
    W.string w e.te_assembly;
    W.string w e.te_download_path
  in
  (* Entry-carrying slots in wire order, for the trailing version block. *)
  let carried = ref [] in
  List.iter
    (fun e ->
      match (form e : handle_form) with
      | `Plain ->
          W.u8 w 0;
          entry e;
          carried := e :: !carried
      | `Bind h ->
          W.u8 w 1;
          W.varint w h;
          entry e;
          carried := e :: !carried
      | `Ref h ->
          W.u8 w 2;
          W.varint w h)
    t.env_types;
  (match t.env_payload with
  | Psoap x ->
      W.u8 w 0;
      W.string w (Xml.to_string x)
  | Pbinary p ->
      W.u8 w 1;
      W.string w p);
  let carried = List.rev !carried in
  if List.exists (fun e -> e.te_version > 0) carried then
    List.iter (fun e -> W.varint w e.te_version) carried;
  Bytes_io.seal ~magic:bin_magic w

let is_binary_h s =
  String.length s >= String.length bin_magic + 8
  && Bytes_io.has_magic ~magic:bin_magic s

(* Only called on [is_binary_h] frames: a failed unseal is a checksum
   mismatch. *)
let of_string_hb ~resolve s =
  match Bytes_io.unseal ~magic:bin_magic s with
  | Error _ -> Error (Corrupt "envelope wire checksum mismatch")
  | Ok r ->
    try
      let digest8 = R.int64_be r in
      let n = R.varint r in
      if n < 0 || n > 10_000 then failwith "bad slot count";
      let entry () =
        let te_name = R.string r in
        let guid_s = R.string r in
        let te_guid =
          match Guid.of_string guid_s with
          | Some g -> g
          | None -> failwith (Printf.sprintf "bad guid %S" guid_s)
        in
        let te_assembly = R.string r in
        let te_download_path = R.string r in
        { te_name; te_guid; te_assembly; te_download_path; te_version = 0 }
      in
      (* Explicit recursion: reads are effectful, evaluation order must
         be the wire order. *)
      let rec read_slots acc k =
        if k = 0 then List.rev acc
        else
          let slot =
            match R.u8 r with
            | 0 -> `Plain_e (entry ())
            | 1 ->
                let h = R.varint r in
                `Bind_e (h, entry ())
            | 2 -> `Ref_h (R.varint r)
            | tag -> failwith (Printf.sprintf "bad slot tag %d" tag)
          in
          read_slots (slot :: acc) (k - 1)
      in
      let slots = read_slots [] n in
      let env_payload =
        match R.u8 r with
        | 0 -> (
            match Xml.parse (R.string r) with
            | Ok x -> Psoap x
            | Error e ->
                failwith (Format.asprintf "bad soap payload: %a" Xml.pp_error e)
            )
        | 1 -> Pbinary (R.string r)
        | tag -> failwith (Printf.sprintf "bad payload tag %d" tag)
      in
      (* Trailing version block: present only when some entry was
         versioned; a pre-evolution frame ends here. *)
      let slots =
        if R.at_end r then slots
        else
          (* Explicit recursion again: reads are effectful, the versions
             must be consumed in wire (slot) order. *)
          let rec patch acc = function
            | [] -> List.rev acc
            | `Plain_e e :: rest ->
                patch (`Plain_e { e with te_version = R.varint r } :: acc) rest
            | `Bind_e (h, e) :: rest ->
                patch
                  (`Bind_e (h, { e with te_version = R.varint r }) :: acc)
                  rest
            | (`Ref_h _ as s) :: rest -> patch (s :: acc) rest
          in
          patch [] slots
      in
      if not (R.at_end r) then failwith "trailing bytes in envelope"
      else begin
        let bindings =
          List.filter_map
            (function `Bind_e (h, e) -> Some (h, e) | _ -> None)
            slots
        in
        let unknown = ref [] in
        let env_types =
          List.filter_map
            (function
              | `Plain_e e | `Bind_e (_, e) -> Some e
              | `Ref_h h -> (
                  match List.assoc_opt h bindings with
                  | Some e -> Some e
                  | None -> (
                      match resolve h with
                      | Some e -> Some e
                      | None ->
                          if not (List.mem h !unknown) then
                            unknown := h :: !unknown;
                          None)))
            slots
        in
        match List.rev !unknown with
        | _ :: _ as hs -> Error (Unknown_handles hs)
        | [] ->
            let t = { env_types; env_payload } in
            (* Semantic digest over the reconstruction: a wrong binding
               in the link table can never look like an intact envelope. *)
            if Int64.equal digest8 (digest64 t) then Ok (t, bindings)
            else Error (Corrupt "envelope digest mismatch")
      end
    with
    | R.Underflow m -> Error (Malformed m)
    | Failure m -> Error (Malformed m)

let of_string_h ~resolve s =
  if is_binary_h s then of_string_hb ~resolve s
  else
    match Xml.parse s with
    | Error e -> Error (Malformed (Format.asprintf "%a" Xml.pp_error e))
    | Ok x -> of_xml_h ~resolve x

(* Frame-level integrity probe for the chaos harness: true iff the
   document parses and its checksum / wire digest (or, for plain XML
   envelopes, the semantic digest) matches. Unknown handles do not make
   a frame dirty — they are a table condition, not wire damage. *)
let wire_ok s =
  match of_string_h ~resolve:(fun _ -> None) s with
  | Ok _ | Error (Unknown_handles _) -> true
  | Error (Corrupt _) -> false
  | Error (Malformed _ | Unknown_type _) -> false
