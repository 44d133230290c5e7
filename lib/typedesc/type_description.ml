open Pti_cts
module Xml = Pti_xml.Xml
module Guid = Pti_util.Guid
module S = Pti_util.Strutil

type param_desc = { pd_name : string; pd_ty : Ty.t }

type method_desc = {
  md_name : string;
  md_params : param_desc list;
  md_return : Ty.t;
  md_mods : Meta.member_mods;
}

type field_desc = {
  fd_name : string;
  fd_ty : Ty.t;
  fd_mods : Meta.member_mods;
}

type ctor_desc = { cd_params : param_desc list; cd_mods : Meta.member_mods }

type t = {
  ty_name : string;
  ty_namespace : string list;
  ty_guid : Guid.t;
  ty_kind : Meta.kind;
  ty_super : string option;
  ty_interfaces : string list;
  ty_fields : field_desc list;
  ty_ctors : ctor_desc list;
  ty_methods : method_desc list;
  ty_assembly : string;
}

let param_of_meta p = { pd_name = p.Meta.param_name; pd_ty = p.Meta.param_ty }

let of_class (cd : Meta.class_def) =
  {
    ty_name = cd.Meta.td_name;
    ty_namespace = cd.Meta.td_namespace;
    ty_guid = cd.Meta.td_guid;
    ty_kind = cd.Meta.td_kind;
    ty_super = cd.Meta.td_super;
    ty_interfaces = cd.Meta.td_interfaces;
    ty_fields =
      List.map
        (fun f ->
          { fd_name = f.Meta.f_name; fd_ty = f.Meta.f_ty;
            fd_mods = f.Meta.f_mods })
        cd.Meta.td_fields;
    ty_ctors =
      List.map
        (fun c ->
          { cd_params = List.map param_of_meta c.Meta.c_params;
            cd_mods = c.Meta.c_mods })
        cd.Meta.td_ctors;
    ty_methods =
      List.map
        (fun m ->
          {
            md_name = m.Meta.m_name;
            md_params = List.map param_of_meta m.Meta.m_params;
            md_return = m.Meta.m_return;
            md_mods = m.Meta.m_mods;
          })
        cd.Meta.td_methods;
    ty_assembly = cd.Meta.td_assembly;
  }

let to_class t =
  {
    Meta.td_name = t.ty_name;
    td_namespace = t.ty_namespace;
    td_guid = t.ty_guid;
    td_kind = t.ty_kind;
    td_super = t.ty_super;
    td_interfaces = t.ty_interfaces;
    td_fields =
      List.map
        (fun f ->
          { Meta.f_name = f.fd_name; f_ty = f.fd_ty; f_mods = f.fd_mods;
            f_init = None })
        t.ty_fields;
    td_ctors =
      List.map
        (fun c ->
          {
            Meta.c_params =
              List.map
                (fun p -> { Meta.param_name = p.pd_name; param_ty = p.pd_ty })
                c.cd_params;
            c_mods = c.cd_mods;
            c_body = None;
          })
        t.ty_ctors;
    td_methods =
      List.map
        (fun m ->
          {
            Meta.m_name = m.md_name;
            m_params =
              List.map
                (fun p -> { Meta.param_name = p.pd_name; param_ty = p.pd_ty })
                m.md_params;
            m_return = m.md_return;
            m_mods = m.md_mods;
            m_body = None;
          })
        t.ty_methods;
    td_assembly = t.ty_assembly;
  }

let qualified_name t =
  match t.ty_namespace with
  | [] -> t.ty_name
  | ns -> String.concat "." ns ^ "." ^ t.ty_name

let equals a b = Guid.equal a.ty_guid b.ty_guid

let method_arity m = List.length m.md_params

let signature m =
  Printf.sprintf "%s(%s) : %s" m.md_name
    (String.concat ", "
       (List.map (fun p -> Ty.to_string p.pd_ty) m.md_params))
    (Ty.to_string m.md_return)

(* --- fingerprint ------------------------------------------------------ *)

let mods_key (m : Meta.member_mods) =
  Printf.sprintf "%s%c%c"
    (Meta.visibility_to_string m.Meta.visibility)
    (if m.Meta.static then 's' else '-')
    (if m.Meta.virtual_ then 'v' else '-')

let ty_key ty = String.lowercase_ascii (Ty.to_string ty)

let fingerprint t =
  let b = Buffer.create 256 in
  let add s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  add (String.lowercase_ascii (qualified_name t));
  add (Meta.kind_to_string t.ty_kind);
  add
    (match t.ty_super with
    | None -> "-"
    | Some s -> String.lowercase_ascii s);
  List.iter add
    (List.sort compare (List.map String.lowercase_ascii t.ty_interfaces));
  let field_keys =
    List.sort compare
      (List.map
         (fun f ->
           Printf.sprintf "f:%s:%s:%s"
             (String.lowercase_ascii f.fd_name)
             (ty_key f.fd_ty) (mods_key f.fd_mods))
         t.ty_fields)
  in
  List.iter add field_keys;
  let params_key ps =
    (* Parameter order is *not* part of the fingerprint beyond multiset:
       conformance considers permutations, so equivalence must too. *)
    String.concat ","
      (List.sort compare (List.map (fun p -> ty_key p.pd_ty) ps))
  in
  let ctor_keys =
    List.sort compare
      (List.map
         (fun c ->
           Printf.sprintf "c:(%s):%s" (params_key c.cd_params)
             (mods_key c.cd_mods))
         t.ty_ctors)
  in
  List.iter add ctor_keys;
  let method_keys =
    List.sort compare
      (List.map
         (fun m ->
           Printf.sprintf "m:%s:(%s):%s:%s"
             (String.lowercase_ascii m.md_name)
             (params_key m.md_params) (ty_key m.md_return)
             (mods_key m.md_mods))
         t.ty_methods)
  in
  List.iter add method_keys;
  (* Digest the canonical text so fingerprints are small, stable keys. *)
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [qualified_name t] without building it: the namespace segments and the
   name, joined by ['.']. *)
let qualified_length t =
  List.fold_left
    (fun n seg -> n + String.length seg + 1)
    (String.length t.ty_name) t.ty_namespace

let rec qualified_char segs name k =
  match segs with
  | [] -> String.unsafe_get name k
  | seg :: rest ->
      let n = String.length seg in
      if k < n then String.unsafe_get seg k
      else if k = n then '.'
      else qualified_char rest name (k - n - 1)

let rec qualified_equal_ci a b k n =
  k >= n
  || Char.equal
       (Char.lowercase_ascii (qualified_char a.ty_namespace a.ty_name k))
       (Char.lowercase_ascii (qualified_char b.ty_namespace b.ty_name k))
     && qualified_equal_ci a b (k + 1) n

(* A fingerprint starts with the lowercased qualified name, so
   descriptions whose names differ can never match: they are told apart
   without building either fingerprint. (A name holding a line break
   could in principle blur the fingerprint's line structure; there the
   guard can only turn a match into a miss, never the reverse.) *)
let equivalent a b =
  let n = qualified_length a in
  n = qualified_length b
  && qualified_equal_ci a b 0 n
  && String.equal (fingerprint a) (fingerprint b)

(* --- XML codec -------------------------------------------------------- *)

let mods_attrs (m : Meta.member_mods) =
  [
    ("visibility", Meta.visibility_to_string m.Meta.visibility);
    ("static", string_of_bool m.Meta.static);
    ("virtual", string_of_bool m.Meta.virtual_);
  ]

let params_to_xml ps =
  List.map
    (fun p ->
      Xml.elt "param"
        ~attrs:[ ("name", p.pd_name); ("type", Ty.to_string p.pd_ty) ]
        [])
    ps

let to_xml t =
  let open Xml in
  elt "typeDescription"
    ~attrs:
      [
        ("name", t.ty_name);
        ("namespace", String.concat "." t.ty_namespace);
        ("guid", Guid.to_string t.ty_guid);
        ("kind", Meta.kind_to_string t.ty_kind);
        ("assembly", t.ty_assembly);
      ]
    (List.concat
       [
         (match t.ty_super with
         | None -> []
         | Some s -> [ elt "super" ~attrs:[ ("name", s) ] [] ]);
         List.map
           (fun i -> elt "interface" ~attrs:[ ("name", i) ] [])
           t.ty_interfaces;
         List.map
           (fun f ->
             elt "field"
               ~attrs:
                 (("name", f.fd_name) :: ("type", Ty.to_string f.fd_ty)
                 :: mods_attrs f.fd_mods)
               [])
           t.ty_fields;
         List.map
           (fun c ->
             elt "constructor" ~attrs:(mods_attrs c.cd_mods)
               (params_to_xml c.cd_params))
           t.ty_ctors;
         List.map
           (fun m ->
             elt "method"
               ~attrs:
                 (("name", m.md_name)
                 :: ("return", Ty.to_string m.md_return)
                 :: mods_attrs m.md_mods)
               (params_to_xml m.md_params))
           t.ty_methods;
       ])

(* Decoding reads the document straight from its bytes through
   {!Xml.Reader}, with the digest streamed as it goes: no tree is built,
   and a value is copied only when the description keeps it. It accepts
   exactly what a decoder over the parsed tree would: children in any
   order, unknown elements (and any children of a member) skipped, the
   first [<super>] winning. The first semantic error stops decoding;
   {!Pti_xml.Digest_attr.decode} then reads on, so a syntax error or a
   digest mismatch later in the document still takes precedence. *)

module X = Xml.Reader

let ty_attr r name =
  let i = X.required r name in
  match X.value_with r i Ty.of_sub with
  | Some ty -> ty
  | None -> X.invalid "bad type reference %S" (X.value r i)

let bool_attr r name =
  let i = X.required r name in
  if X.value_is r i "true" then true
  else if X.value_is r i "false" then false
  else X.invalid "bad boolean %S for %S" (X.value r i) name

let mods_of r =
  let visibility =
    X.choice r "visibility" ~what:"visibility" Meta.visibility_to_string
      [ Meta.Public; Meta.Protected; Meta.Private ]
  in
  let static = bool_attr r "static" in
  let virtual_ = bool_attr r "virtual" in
  { Meta.visibility; static; virtual_ }

let namespace_attr r =
  let ns = X.required_value r "namespace" in
  if ns = "" then [] else S.split_on '.' ns

let guid_attr r =
  let g = X.required_value r "guid" in
  match Guid.of_string g with
  | Some g -> g
  | None -> X.invalid "bad guid %S" g

(* The [<param>] children of the element just started, through its end;
   [acc] holds those read so far, reversed. *)
let rec params_of r acc =
  match X.next_tag r with
  | X.Start when X.is r "param" ->
      let pd_name = X.required_value r "name" in
      let pd_ty = ty_attr r "type" in
      X.skip r;
      params_of r ({ pd_name; pd_ty } :: acc)
  | X.Start ->
      X.skip r;
      params_of r acc
  | _ -> List.rev acc

type members = {
  mutable super : string option;
  mutable interfaces : string list;
  mutable fields : field_desc list;
  mutable ctors : ctor_desc list;
  mutable methods : method_desc list;
}

let rec read_members r m =
  match X.next_tag r with
  | X.Start ->
      if X.is r "super" then begin
        if m.super = None then m.super <- Some (X.required_value r "name");
        X.skip r
      end
      else if X.is r "interface" then begin
        m.interfaces <- X.required_value r "name" :: m.interfaces;
        X.skip r
      end
      else if X.is r "field" then begin
        let fd_name = X.required_value r "name" in
        let fd_ty = ty_attr r "type" in
        let fd_mods = mods_of r in
        X.skip r;
        m.fields <- { fd_name; fd_ty; fd_mods } :: m.fields
      end
      else if X.is r "constructor" then begin
        let cd_mods = mods_of r in
        let cd_params = params_of r [] in
        m.ctors <- { cd_params; cd_mods } :: m.ctors
      end
      else if X.is r "method" then begin
        let md_name = X.required_value r "name" in
        let md_return = ty_attr r "return" in
        let md_mods = mods_of r in
        let md_params = params_of r [] in
        m.methods <- { md_name; md_params; md_return; md_mods } :: m.methods
      end
      else X.skip r;
      read_members r m
  | _ -> ()

let decode r =
  ignore (X.next_tag r);
  if not (X.is r "typeDescription") then
    X.invalid "expected <typeDescription>, got <%s>" (X.name r);
  let ty_name = X.required_value r "name" in
  let ty_namespace = namespace_attr r in
  let ty_guid = guid_attr r in
  let ty_kind =
    X.choice r "kind" ~what:"kind" Meta.kind_to_string
      [ Meta.Class; Meta.Interface ]
  in
  let ty_assembly = X.required_value r "assembly" in
  let m =
    { super = None; interfaces = []; fields = []; ctors = []; methods = [] }
  in
  read_members r m;
  {
    ty_name;
    ty_namespace;
    ty_guid;
    ty_kind;
    ty_super = m.super;
    ty_interfaces = List.rev m.interfaces;
    ty_fields = List.rev m.fields;
    ty_ctors = List.rev m.ctors;
    ty_methods = List.rev m.methods;
    ty_assembly;
  }

(* The compact wire rendering carries an integrity digest; the pretty
   rendering is for display and stays digest-free (whitespace would not
   survive a canonical re-render). *)
let to_xml_string ?(pretty = false) t =
  if pretty then Xml.to_string_pretty (to_xml t)
  else Xml.to_string (Pti_xml.Digest_attr.add (to_xml t))

let of_xml_string s =
  Pti_xml.Digest_attr.decode ~what:"type description" s decode

let size_bytes t = Xml.size_bytes (to_xml t)

(* --- compact binary codec -------------------------------------------- *)

(* Negotiated per link as a wire-efficiency measure: a description in
   this form is a fraction of its XML rendering. XML stays the default
   and the interop fallback — a reply is self-describing by its magic.
   Same integrity discipline as the other binary frames:
   {!Pti_serial.Bytes_io.seal}. *)

module W = Pti_serial.Bytes_io.Writer
module R = Pti_serial.Bytes_io.Reader

let binary_magic = "PTID\x01"

let w_mods w (m : Meta.member_mods) =
  W.string w (Meta.visibility_to_string m.Meta.visibility);
  W.bool w m.Meta.static;
  W.bool w m.Meta.virtual_

let w_ty w ty = W.string w (Ty.to_string ty)

let w_params w ps =
  W.varint w (List.length ps);
  List.iter
    (fun p ->
      W.string w p.pd_name;
      w_ty w p.pd_ty)
    ps

let w_list w f l =
  W.varint w (List.length l);
  List.iter (f w) l

let to_binary_string t =
  let w = W.create () in
  W.string w t.ty_name;
  w_list w W.string t.ty_namespace;
  W.string w (Guid.to_string t.ty_guid);
  W.string w (Meta.kind_to_string t.ty_kind);
  W.string w t.ty_assembly;
  (match t.ty_super with
  | None -> W.bool w false
  | Some s ->
      W.bool w true;
      W.string w s);
  w_list w W.string t.ty_interfaces;
  w_list w
    (fun w f ->
      W.string w f.fd_name;
      w_ty w f.fd_ty;
      w_mods w f.fd_mods)
    t.ty_fields;
  w_list w
    (fun w c ->
      w_params w c.cd_params;
      w_mods w c.cd_mods)
    t.ty_ctors;
  w_list w
    (fun w m ->
      W.string w m.md_name;
      w_params w m.md_params;
      w_ty w m.md_return;
      w_mods w m.md_mods)
    t.ty_methods;
  Pti_serial.Bytes_io.seal ~magic:binary_magic w

let is_binary s = Pti_serial.Bytes_io.has_magic ~magic:binary_magic s

exception Bad of string

let of_binary_string s =
  match Pti_serial.Bytes_io.unseal ~magic:binary_magic s with
  | Error Pti_serial.Bytes_io.Truncated -> Error "truncated binary tdesc"
  | Error Pti_serial.Bytes_io.Bad_magic -> Error "bad binary tdesc magic"
  | Error Pti_serial.Bytes_io.Bad_checksum ->
      Error "corrupt type description: checksum mismatch"
  | Ok r -> (
      try
        let r_list f =
          let n = R.varint r in
          if n < 0 || n > 100_000 then raise (Bad "bad list length");
          let rec go acc k =
            if k = 0 then List.rev acc else go (f () :: acc) (k - 1)
          in
          go [] n
        in
        let r_ty () =
          let s = R.string r in
          match Ty.of_string s with
          | Some ty -> ty
          | None -> raise (Bad (Printf.sprintf "bad type %S" s))
        in
        let r_mods () =
          let v = R.string r in
          let visibility =
            match Meta.visibility_of_string v with
            | Some v -> v
            | None -> raise (Bad (Printf.sprintf "bad visibility %S" v))
          in
          let static = R.bool r in
          let virtual_ = R.bool r in
          { Meta.visibility; static; virtual_ }
        in
        let r_params () =
          r_list (fun () ->
              let pd_name = R.string r in
              let pd_ty = r_ty () in
              { pd_name; pd_ty })
        in
        let ty_name = R.string r in
        let ty_namespace = r_list (fun () -> R.string r) in
        let guid_s = R.string r in
        let ty_guid =
          match Guid.of_string guid_s with
          | Some g -> g
          | None -> raise (Bad (Printf.sprintf "bad guid %S" guid_s))
        in
        let kind_s = R.string r in
        let ty_kind =
          match Meta.kind_of_string kind_s with
          | Some k -> k
          | None -> raise (Bad (Printf.sprintf "bad kind %S" kind_s))
        in
        let ty_assembly = R.string r in
        let ty_super = if R.bool r then Some (R.string r) else None in
        let ty_interfaces = r_list (fun () -> R.string r) in
        let ty_fields =
          r_list (fun () ->
              let fd_name = R.string r in
              let fd_ty = r_ty () in
              let fd_mods = r_mods () in
              { fd_name; fd_ty; fd_mods })
        in
        let ty_ctors =
          r_list (fun () ->
              let cd_params = r_params () in
              let cd_mods = r_mods () in
              { cd_params; cd_mods })
        in
        let ty_methods =
          r_list (fun () ->
              let md_name = R.string r in
              let md_params = r_params () in
              let md_return = r_ty () in
              let md_mods = r_mods () in
              { md_name; md_params; md_return; md_mods })
        in
        if not (R.at_end r) then Error "trailing bytes in binary tdesc"
        else
          Ok
            {
              ty_name;
              ty_namespace;
              ty_guid;
              ty_kind;
              ty_super;
              ty_interfaces;
              ty_fields;
              ty_ctors;
              ty_methods;
              ty_assembly;
            }
      with
      | Bad m -> Error m
      | R.Underflow m -> Error ("truncated binary tdesc: " ^ m))

(* Self-describing parse: binary by magic, XML otherwise. *)
let of_wire_string s = if is_binary s then of_binary_string s else of_xml_string s

let pp ppf t =
  Format.fprintf ppf "@[<v>%s %s [%a] asm=%s@,"
    (Meta.kind_to_string t.ty_kind)
    (qualified_name t) Guid.pp t.ty_guid t.ty_assembly;
  (match t.ty_super with
  | Some s -> Format.fprintf ppf "  super %s@," s
  | None -> ());
  List.iter (fun i -> Format.fprintf ppf "  implements %s@," i) t.ty_interfaces;
  List.iter
    (fun f ->
      Format.fprintf ppf "  field %s : %s@," f.fd_name (Ty.to_string f.fd_ty))
    t.ty_fields;
  List.iter
    (fun c ->
      Format.fprintf ppf "  ctor(%s)@,"
        (String.concat ", "
           (List.map (fun p -> Ty.to_string p.pd_ty) c.cd_params)))
    t.ty_ctors;
  List.iter (fun m -> Format.fprintf ppf "  method %s@," (signature m))
    t.ty_methods;
  Format.fprintf ppf "@]"

type resolver = string -> t option

let registry_resolver reg name =
  Option.map of_class (Registry.find reg name)

let table_resolver descs name =
  List.find_opt (fun d -> S.equal_ci (qualified_name d) name) descs

let chain r1 r2 name = match r1 name with Some d -> Some d | None -> r2 name
