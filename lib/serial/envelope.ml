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
   distinct envelopes share a digest. The fields are fed into one
   [Fnv.state]: decimal lengths digit by digit and GUIDs nibble by
   nibble, so neither the canonical byte string nor any field rendering
   is ever built. *)
let feed_field st s =
  Fnv.feed_decimal st (String.length s);
  Fnv.feed_byte st (Char.code ':');
  Fnv.feed st s 0 (String.length s)

let rec decimal_length n = if n < 10 then 1 else 1 + decimal_length (n / 10)

let feed_entry st e =
  feed_field st e.te_name;
  Fnv.feed_decimal st 36;
  Fnv.feed_byte st (Char.code ':');
  Guid.feed st e.te_guid;
  feed_field st e.te_assembly;
  feed_field st e.te_download_path;
  (* Versioned entries fold the field ["v<version>"] into the digest;
     version 0 stays absent so pre-evolution envelopes keep their
     digests. *)
  if e.te_version > 0 then begin
    Fnv.feed_decimal st (1 + decimal_length e.te_version);
    Fnv.feed_byte st (Char.code ':');
    Fnv.feed_byte st (Char.code 'v');
    Fnv.feed_decimal st e.te_version
  end

let rec feed_entries st = function
  | [] -> ()
  | e :: rest ->
      feed_entry st e;
      feed_entries st rest

let digest64 t =
  let st = Fnv.start () in
  feed_entries st t.env_types;
  (match t.env_payload with
  | Psoap x ->
      feed_field st "soap";
      feed_field st (Xml.to_string x)
  | Pbinary p ->
      feed_field st "binary";
      feed_field st p);
  Fnv.value st

let digest t = Fnv.to_hex (digest64 t)

(* Distinct class names reachable from a value, root first. Only the
   root's place is fixed ([make] sorts the rest by qualified name), so
   fields are visited in table order. The set of objects seen is a
   per-domain spare ({!Pti_util.Spare}). *)
let walk_spare =
  Pti_util.Spare.make ~create:Slots.create ~clear:Slots.clear ~words:Slots.words

let rec mem_ci name = function
  | [] -> false
  | n :: rest -> Pti_util.Strutil.equal_ci n name || mem_ci name rest

let rec visit seen found v =
  match v with
  | Value.Vnull | Value.Vbool _ | Value.Vint _ | Value.Vfloat _
  | Value.Vstring _ | Value.Vchar _ ->
      ()
  | Value.Vproxy p -> visit seen found p.Value.px_target
  | Value.Varr a ->
      for i = 0 to Array.length a.Value.items - 1 do
        visit seen found a.Value.items.(i)
      done
  | Value.Vobj o ->
      if Slots.find seen o.Value.oid < 0 then begin
        Slots.replace seen o.Value.oid 0;
        if not (mem_ci o.Value.cls !found) then found := o.Value.cls :: !found;
        Hashtbl.iter (fun _ v -> visit seen found v) o.Value.fields
      end

let walk seen v () =
  let found = ref [] in
  visit seen found v;
  List.rev !found

let graph_classes v = Pti_util.Spare.use walk_spare walk v ()

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
let rec entry_named name = function
  | [] -> []
  | e :: _ as l when Pti_util.Strutil.equal_ci e.te_name name -> l
  | _ :: rest -> entry_named name rest

let pinned_resolve reg t name =
  match entry_named name t.env_types with
  | e :: _ -> (
      match Registry.find_by_guid reg e.te_guid with
      | Some _ as cd -> cd
      | None -> Registry.find reg name)
  | [] -> Registry.find reg name

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

(* ------------------------- XML form -------------------------------- *)

(* Layout (Figure 3), in the compact canonical rendering:

     <envelope digest="HEX16"><type name=".." guid=".." assembly=".."
       downloadPath=".." [version="N"]/>*<payload encoding="binary">BASE64
       </payload></envelope>

   with [encoding="soap"] and the SOAP element instead of the base64
   text for a SOAP payload. Both directions work on the bytes: the
   writer appends the document to a per-domain spare buffer
   ({!Pti_util.Spare}) and the reader decodes it straight into records,
   building a tree only for a SOAP payload's element. The tree pair
   ([to_xml]/[of_xml] over [Xml.t]) they replace is kept in the tests as
   their reference. *)

let xml_spare =
  Pti_util.Spare.make
    ~create:(fun () -> Buffer.create 512)
    ~clear:Buffer.clear
    ~words:(fun b -> Buffer.length b / (Sys.word_size / 8))

let add_attr b name v =
  Buffer.add_char b ' ';
  Buffer.add_string b name;
  Buffer.add_string b "=\"";
  Xml.escape_attr_to b v;
  Buffer.add_char b '"'

let rec add_entries b = function
  | [] -> ()
  | e :: rest ->
      Buffer.add_string b "<type";
      add_attr b "name" e.te_name;
      Buffer.add_string b " guid=\"";
      Guid.add_to_buffer b e.te_guid;
      Buffer.add_char b '"';
      add_attr b "assembly" e.te_assembly;
      add_attr b "downloadPath" e.te_download_path;
      if e.te_version > 0 then add_attr b "version" (string_of_int e.te_version);
      Buffer.add_string b "/>";
      add_entries b rest

let write_xml b t () =
  Buffer.add_string b "<envelope digest=\"";
  Fnv.add_hex b (digest64 t);
  Buffer.add_string b "\">";
  add_entries b t.env_types;
  (match t.env_payload with
  | Psoap x ->
      Buffer.add_string b "<payload encoding=\"soap\">";
      Xml.to_buffer b x
  | Pbinary p ->
      Buffer.add_string b "<payload encoding=\"binary\">";
      B64.encode_to b p);
  Buffer.add_string b "</payload></envelope>";
  Buffer.contents b

let to_string t = Pti_util.Spare.use xml_spare write_xml t ()

module XR = Xml.Reader

let missing name = Error (Malformed (Printf.sprintf "missing attribute %S" name))

(* A <type> element's entry, read from its start tag. The attributes are
   checked in a fixed order, so a tag with several faults always reports
   the same one. *)
let read_entry r =
  let i_name = XR.attr r "name" and i_guid = XR.attr r "guid" in
  if i_name < 0 then missing "name"
  else if i_guid < 0 then missing "guid"
  else
    match XR.value_with r i_guid Guid.of_sub with
    | None -> Error (Malformed (Printf.sprintf "bad guid %S" (XR.value r i_guid)))
    | Some te_guid -> (
        let i_asm = XR.attr r "assembly" and i_path = XR.attr r "downloadPath" in
        if i_asm < 0 then missing "assembly"
        else if i_path < 0 then missing "downloadPath"
        else
          (* Optional: absent on envelopes from pre-evolution senders. *)
          let i_version = XR.attr r "version" in
          let te_version =
            if i_version < 0 then 0
            else
              match int_of_string_opt (XR.value r i_version) with
              | Some v when v >= 0 -> v
              | _ -> -1
          in
          if te_version < 0 then
            Error
              (Malformed
                 (Printf.sprintf "bad version %S" (XR.value r i_version)))
          else
            Ok
              {
                te_name = XR.value r i_name;
                te_guid;
                te_assembly = XR.value r i_asm;
                te_download_path = XR.value r i_path;
                te_version;
              })

(* A SOAP payload's children: exactly one element, kept as a tree. *)
let rec read_soap r inner n =
  match XR.next r with
  | XR.Start ->
      if n = 0 then read_soap r (Some (Xml.subtree r)) 1
      else begin
        XR.skip r;
        read_soap r inner (n + 1)
      end
  | XR.Text | XR.Cdata | XR.Comment -> read_soap r inner n
  | XR.End | XR.Eof -> (
      match inner with
      | Some x when n = 1 -> Ok (Psoap x)
      | _ -> Error (Malformed "soap payload expects one element"))

(* A binary payload is all the character data inside it, at any depth,
   comments left out: each piece goes through one base64 decoder. *)
let rec read_base64 r d depth =
  match XR.next r with
  | XR.Text | XR.Cdata ->
      XR.text_with r B64.feed d;
      read_base64 r d depth
  | XR.Comment -> read_base64 r d depth
  | XR.Start -> read_base64 r d (depth + 1)
  | XR.End -> if depth > 0 then read_base64 r d (depth - 1)
  | XR.Eof -> ()

(* From the <payload> start tag through its end tag. *)
let read_payload b r =
  let i = XR.attr r "encoding" in
  if i < 0 then begin
    XR.skip r;
    missing "encoding"
  end
  else if XR.value_is r i "soap" then read_soap r None 0
  else if XR.value_is r i "binary" then begin
    let d = B64.decoder b in
    read_base64 r d 0;
    if B64.finish d then Ok (Pbinary (Buffer.contents b))
    else Error (Malformed "bad base64 payload")
  end
  else
    let encoding = XR.value r i in
    XR.skip r;
    Error (Malformed (Printf.sprintf "unknown encoding %S" encoding))

(* What the root's children held. The whole document is read before any
   of it is judged, so faults rank as they would on a parsed tree: a
   syntax error anywhere first, then a <typeref>, then the first bad
   <type> entry, then the first <payload>, then the digest. *)
type scan = {
  mutable entries : type_entry list;  (* last first *)
  mutable entry_error : error option;
  mutable typeref : bool;
  mutable payload : (payload, error) result option;
}

let rec read_children b r sc =
  match XR.next r with
  | XR.Start ->
      if XR.is r "type" then begin
        (match sc.entry_error with
        | Some _ -> ()
        | None -> (
            match read_entry r with
            | Ok e -> sc.entries <- e :: sc.entries
            | Error e -> sc.entry_error <- Some e));
        XR.skip r
      end
      else if XR.is r "payload" && Option.is_none sc.payload then
        sc.payload <- Some (read_payload b r)
      else begin
        if XR.is r "typeref" then sc.typeref <- true;
        XR.skip r
      end;
      read_children b r sc
  | XR.Text | XR.Cdata | XR.Comment -> read_children b r sc
  | XR.End | XR.Eof -> ()

let judge sc digest_attr =
  if sc.typeref then
    (* Handle references only exist in the binary PTIE form. *)
    Error (Malformed "<typeref> in an XML envelope")
  else
    match (sc.entry_error, sc.payload) with
    | Some e, _ | None, Some (Error e) -> Error e
    | None, None -> Error (Malformed "missing <payload>")
    | None, Some (Ok env_payload) -> (
        let t = { env_types = List.rev sc.entries; env_payload } in
        (* An envelope written before digests existed (no attribute) is
           accepted as-is; a present digest must match the recomputed
           one. *)
        match digest_attr with
        | None -> Ok t
        | Some d when String.equal d (digest t) -> Ok t
        | Some _ -> Error (Corrupt "envelope digest mismatch"))

let read_xml b s () =
  let r = XR.create s in
  match
    ignore (XR.next r);
    if not (XR.is r "envelope") then begin
      let name = XR.name r in
      XR.drain r;
      Error (Malformed (Printf.sprintf "expected <envelope>, got <%s>" name))
    end
    else begin
      let i = XR.attr r "digest" in
      let digest_attr = if i < 0 then None else Some (XR.value r i) in
      let sc =
        { entries = []; entry_error = None; typeref = false; payload = None }
      in
      read_children b r sc;
      XR.drain r;
      judge sc digest_attr
    end
  with
  | result -> result
  | exception Xml.Malformed e ->
      Error (Malformed (Format.asprintf "%a" Xml.pp_error e))

let of_string s = Pti_util.Spare.use xml_spare read_xml s ()

let size_bytes t = String.length (to_string t)

(* ------------------- negotiated type handles ----------------------- *)

(* A handle-encoded envelope replaces repeat type entries with integer
   references into a per-link table negotiated on first use ([`Bind]
   ships the full entry together with its handle). *)

type handle_form = [ `Plain | `Bind of int | `Ref of int ]

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

   The frame checksum covers the literal content (integrity with no
   table needed); [digest8] is the raw semantic digest over the
   reconstructed envelope, serving exactly like the classic envelope's
   [digest] attribute — a stale or corrupted table binding can never
   pass as an intact delivery. Anything that is not a PTIE frame is
   decoded as a classic XML envelope, which has no handles. *)

module W = Bytes_io.Writer
module R = Bytes_io.Reader

let bin_magic = "PTIE\x01"

let write_entry w e =
  W.string w e.te_name;
  W.string w (Guid.to_string e.te_guid);
  W.string w e.te_assembly;
  W.string w e.te_download_path

(* Writes the slots; returns the entry-carrying ones, last first. *)
let rec write_slots w form carried = function
  | [] -> carried
  | e :: rest -> (
      match (form e : handle_form) with
      | `Plain ->
          W.u8 w 0;
          write_entry w e;
          write_slots w form (e :: carried) rest
      | `Bind h ->
          W.u8 w 1;
          W.varint w h;
          write_entry w e;
          write_slots w form (e :: carried) rest
      | `Ref h ->
          W.u8 w 2;
          W.varint w h;
          write_slots w form carried rest)

let to_string_h t ~form =
  Bytes_io.sealed ~magic:bin_magic (fun w ->
      W.int64_be w (digest64 t);
      W.varint w (List.length t.env_types);
      (* Entry-carrying slots in wire order, for the trailing version
         block. *)
      let carried = List.rev (write_slots w form [] t.env_types) in
      (match t.env_payload with
      | Psoap x ->
          W.u8 w 0;
          W.string w (Xml.to_string x)
      | Pbinary p ->
          W.u8 w 1;
          W.string w p);
      if List.exists (fun e -> e.te_version > 0) carried then
        List.iter (fun e -> W.varint w e.te_version) carried)

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
  else Result.map (fun t -> (t, [])) (of_string s)

(* Frame-level integrity probe for the chaos harness: true iff the
   document parses and its checksum (or, for classic XML envelopes, the
   semantic digest) matches. Unknown handles do not make
   a frame dirty — they are a table condition, not wire damage. *)
let wire_ok s =
  match of_string_h ~resolve:(fun _ -> None) s with
  | Ok _ | Error (Unknown_handles _) -> true
  | Error (Corrupt _) -> false
  | Error (Malformed _ | Unknown_type _) -> false
