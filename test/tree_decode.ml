(* The tree decoders for type descriptions and assemblies: parse the
   whole document, verify its digest over the tree, then convert the
   tree into records. The library decodes both documents straight from
   bytes instead; these stay here as the reference its decoders are
   compared with. *)

open Pti_cts
module Xml = Pti_xml.Xml
module Guid = Pti_util.Guid
module S = Pti_util.Strutil
module Td = Pti_typedesc.Type_description

(* ------------------------- type descriptions ------------------------ *)

let ( let* ) = Result.bind

let attr_req name x =
  match Xml.attr name x with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing attribute %S" name)

let ty_attr name x =
  let* s = attr_req name x in
  match Ty.of_string s with
  | Some ty -> Ok ty
  | None -> Error (Printf.sprintf "bad type reference %S" s)

let bool_attr name x =
  let* s = attr_req name x in
  match bool_of_string_opt s with
  | Some b -> Ok b
  | None -> Error (Printf.sprintf "bad boolean %S for %S" s name)

let mods_of_xml x =
  let* vis_s = attr_req "visibility" x in
  let* visibility =
    match Meta.visibility_of_string vis_s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "bad visibility %S" vis_s)
  in
  let* static = bool_attr "static" x in
  let* virtual_ = bool_attr "virtual" x in
  Ok { Meta.visibility; static; virtual_ }

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let params_of_xml x =
  map_result
    (fun p ->
      let* name = attr_req "name" p in
      let* ty = ty_attr "type" p in
      Ok { Td.pd_name = name; pd_ty = ty })
    (Xml.childs "param" x)

let td_of_xml x =
  match Xml.tag x with
  | Some "typeDescription" ->
      let* name = attr_req "name" x in
      let* ns_s = attr_req "namespace" x in
      let ty_namespace = if ns_s = "" then [] else S.split_on '.' ns_s in
      let* guid_s = attr_req "guid" x in
      let* ty_guid =
        match Guid.of_string guid_s with
        | Some g -> Ok g
        | None -> Error (Printf.sprintf "bad guid %S" guid_s)
      in
      let* kind_s = attr_req "kind" x in
      let* ty_kind =
        match Meta.kind_of_string kind_s with
        | Some k -> Ok k
        | None -> Error (Printf.sprintf "bad kind %S" kind_s)
      in
      let* ty_assembly = attr_req "assembly" x in
      let* ty_super =
        match Xml.child "super" x with
        | None -> Ok None
        | Some s ->
            let* n = attr_req "name" s in
            Ok (Some n)
      in
      let* ty_interfaces =
        map_result (attr_req "name") (Xml.childs "interface" x)
      in
      let* ty_fields =
        map_result
          (fun f ->
            let* fd_name = attr_req "name" f in
            let* fd_ty = ty_attr "type" f in
            let* fd_mods = mods_of_xml f in
            Ok { Td.fd_name; fd_ty; fd_mods })
          (Xml.childs "field" x)
      in
      let* ty_ctors =
        map_result
          (fun c ->
            let* cd_params = params_of_xml c in
            let* cd_mods = mods_of_xml c in
            Ok { Td.cd_params; cd_mods })
          (Xml.childs "constructor" x)
      in
      let* ty_methods =
        map_result
          (fun m ->
            let* md_name = attr_req "name" m in
            let* md_return = ty_attr "return" m in
            let* md_params = params_of_xml m in
            let* md_mods = mods_of_xml m in
            Ok { Td.md_name; md_params; md_return; md_mods })
          (Xml.childs "method" x)
      in
      Ok
        {
          Td.ty_name = name;
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
  | Some other -> Error (Printf.sprintf "expected <typeDescription>, got <%s>" other)
  | None -> Error "expected an element"

(* ---------------------------- assemblies ---------------------------- *)

let binop_of_string s =
  List.find_opt
    (fun op -> String.equal (Expr.binop_name op) s)
    [
      Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.Mod; Expr.Eq; Expr.Neq;
      Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge; Expr.And; Expr.Or; Expr.Concat;
    ]

let unop_of_string s =
  List.find_opt
    (fun op -> String.equal (Expr.unop_name op) s)
    [ Expr.Neg; Expr.Not ]

let attr name x =
  match Xml.attr name x with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing attribute %S" name)

let elements x =
  List.filter (function Xml.Element _ -> true | _ -> false) (Xml.children x)

let rec expr_of_xml x =
  let kids () = map_result expr_of_xml (elements x) in
  match Xml.tag x with
  | Some "null" -> Ok Expr.null
  | Some "bool" ->
      let* v = attr "v" x in
      (match bool_of_string_opt v with
      | Some b -> Ok (Expr.bool b)
      | None -> Error "bad bool")
  | Some "int" ->
      let* v = attr "v" x in
      (match int_of_string_opt v with
      | Some i -> Ok (Expr.int i)
      | None -> Error "bad int")
  | Some "float" ->
      let* v = attr "v" x in
      (match float_of_string_opt v with
      | Some f -> Ok (Expr.Const (Expr.Cfloat f))
      | None -> Error "bad float")
  | Some "str" ->
      let* v = attr "v" x in
      Ok (Expr.str v)
  | Some "chr" ->
      let* v = attr "v" x in
      (match int_of_string_opt v with
      | Some c when c >= 0 && c < 256 -> Ok (Expr.Const (Expr.Cchar (Char.chr c)))
      | _ -> Error "bad chr")
  | Some "this" -> Ok Expr.This
  | Some "var" ->
      let* name = attr "name" x in
      Ok (Expr.Var name)
  | Some "let" -> (
      let* name = attr "name" x in
      let* ks = kids () in
      match ks with
      | [ e1; e2 ] -> Ok (Expr.Let (name, e1, e2))
      | _ -> Error "let expects 2 children")
  | Some "assign" -> (
      let* name = attr "name" x in
      let* ks = kids () in
      match ks with
      | [ e1 ] -> Ok (Expr.Assign (name, e1))
      | _ -> Error "assign expects 1 child")
  | Some "fget" -> (
      let* field = attr "field" x in
      let* ks = kids () in
      match ks with
      | [ o ] -> Ok (Expr.Field_get (o, field))
      | _ -> Error "fget expects 1 child")
  | Some "fset" -> (
      let* field = attr "field" x in
      let* ks = kids () in
      match ks with
      | [ o; v ] -> Ok (Expr.Field_set (o, field, v))
      | _ -> Error "fset expects 2 children")
  | Some "call" -> (
      let* name = attr "name" x in
      let* ks = kids () in
      match ks with
      | recv :: args -> Ok (Expr.Call (recv, name, args))
      | [] -> Error "call expects a receiver")
  | Some "scall" ->
      let* cls = attr "class" x in
      let* name = attr "name" x in
      let* args = kids () in
      Ok (Expr.Static_call (cls, name, args))
  | Some "new" ->
      let* cls = attr "class" x in
      let* args = kids () in
      Ok (Expr.New (cls, args))
  | Some "newarr" -> (
      let* ty_s = attr "type" x in
      match Ty.of_string ty_s with
      | None -> Error "bad array type"
      | Some ty ->
          let* items = kids () in
          Ok (Expr.New_array (ty, items)))
  | Some "aget" -> (
      let* ks = kids () in
      match ks with
      | [ a; i ] -> Ok (Expr.Index_get (a, i))
      | _ -> Error "aget expects 2 children")
  | Some "aset" -> (
      let* ks = kids () in
      match ks with
      | [ a; i; v ] -> Ok (Expr.Index_set (a, i, v))
      | _ -> Error "aset expects 3 children")
  | Some "alen" -> (
      let* ks = kids () in
      match ks with
      | [ a ] -> Ok (Expr.Array_length a)
      | _ -> Error "alen expects 1 child")
  | Some "if" -> (
      let* ks = kids () in
      match ks with
      | [ c; t; e ] -> Ok (Expr.If (c, t, e))
      | _ -> Error "if expects 3 children")
  | Some "while" -> (
      let* ks = kids () in
      match ks with
      | [ c; b ] -> Ok (Expr.While (c, b))
      | _ -> Error "while expects 2 children")
  | Some "seq" ->
      let* ks = kids () in
      Ok (Expr.Seq ks)
  | Some "binop" -> (
      let* op_s = attr "op" x in
      match binop_of_string op_s with
      | None -> Error (Printf.sprintf "bad binop %S" op_s)
      | Some op -> (
          let* ks = kids () in
          match ks with
          | [ a; b ] -> Ok (Expr.Binop (op, a, b))
          | _ -> Error "binop expects 2 children"))
  | Some "unop" -> (
      let* op_s = attr "op" x in
      match unop_of_string op_s with
      | None -> Error (Printf.sprintf "bad unop %S" op_s)
      | Some op -> (
          let* ks = kids () in
          match ks with
          | [ a ] -> Ok (Expr.Unop (op, a))
          | _ -> Error "unop expects 1 child"))
  | Some "throw" -> (
      let* ks = kids () in
      match ks with
      | [ a ] -> Ok (Expr.Throw a)
      | _ -> Error "throw expects 1 child")
  | Some "try" -> (
      let* var = attr "var" x in
      let* ks = kids () in
      match ks with
      | [ b; h ] -> Ok (Expr.Try (b, var, h))
      | _ -> Error "try expects 2 children")
  | Some other -> Error (Printf.sprintf "unknown expression tag <%s>" other)
  | None -> Error "expected an element"

let asm_mods_of_xml x =
  let* vis_s = attr "visibility" x in
  let* visibility =
    match Meta.visibility_of_string vis_s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "bad visibility %S" vis_s)
  in
  let* st_s = attr "static" x in
  let* vt_s = attr "virtual" x in
  match bool_of_string_opt st_s, bool_of_string_opt vt_s with
  | Some static, Some virtual_ -> Ok { Meta.visibility; static; virtual_ }
  | _ -> Error "bad modifier booleans"

let asm_params_of_xml x =
  map_result
    (fun p ->
      let* name = attr "name" p in
      let* ty_s = attr "type" p in
      match Ty.of_string ty_s with
      | Some ty -> Ok { Meta.param_name = name; param_ty = ty }
      | None -> Error (Printf.sprintf "bad param type %S" ty_s))
    (Xml.childs "param" x)

let body_of_xml tag x =
  match Xml.child tag x with
  | None -> Ok None
  | Some b -> (
      match elements b with
      | [ e ] ->
          let* expr = expr_of_xml e in
          Ok (Some expr)
      | _ -> Error (Printf.sprintf "<%s> expects one child" tag))

let class_of_xml x =
  match Xml.tag x with
  | Some "class" ->
      let* name = attr "name" x in
      let* ns_s = attr "namespace" x in
      let td_namespace = if ns_s = "" then [] else S.split_on '.' ns_s in
      let* guid_s = attr "guid" x in
      let* td_guid =
        match Guid.of_string guid_s with
        | Some g -> Ok g
        | None -> Error (Printf.sprintf "bad guid %S" guid_s)
      in
      let* kind_s = attr "kind" x in
      let* td_kind =
        match Meta.kind_of_string kind_s with
        | Some k -> Ok k
        | None -> Error (Printf.sprintf "bad kind %S" kind_s)
      in
      let* td_assembly = attr "assembly" x in
      let* td_super =
        match Xml.child "super" x with
        | None -> Ok None
        | Some s ->
            let* n = attr "name" s in
            Ok (Some n)
      in
      let* td_interfaces =
        map_result (attr "name") (Xml.childs "interface" x)
      in
      let* td_fields =
        map_result
          (fun f ->
            let* f_name = attr "name" f in
            let* ty_s = attr "type" f in
            let* f_ty =
              match Ty.of_string ty_s with
              | Some ty -> Ok ty
              | None -> Error (Printf.sprintf "bad field type %S" ty_s)
            in
            let* f_mods = asm_mods_of_xml f in
            let* f_init = body_of_xml "init" f in
            Ok { Meta.f_name; f_ty; f_mods; f_init })
          (Xml.childs "field" x)
      in
      let* td_ctors =
        map_result
          (fun c ->
            let* c_params = asm_params_of_xml c in
            let* c_mods = asm_mods_of_xml c in
            let* c_body = body_of_xml "body" c in
            Ok { Meta.c_params; c_mods; c_body })
          (Xml.childs "constructor" x)
      in
      let* td_methods =
        map_result
          (fun m ->
            let* m_name = attr "name" m in
            let* ret_s = attr "return" m in
            let* m_return =
              match Ty.of_string ret_s with
              | Some ty -> Ok ty
              | None -> Error (Printf.sprintf "bad return type %S" ret_s)
            in
            let* m_params = asm_params_of_xml m in
            let* m_mods = asm_mods_of_xml m in
            let* m_body = body_of_xml "body" m in
            Ok { Meta.m_name; m_params; m_return; m_mods; m_body })
          (Xml.childs "method" x)
      in
      Ok
        {
          Meta.td_name = name;
          td_namespace;
          td_guid;
          td_kind;
          td_super;
          td_interfaces;
          td_fields;
          td_ctors;
          td_methods;
          td_assembly;
        }
  | Some other -> Error (Printf.sprintf "expected <class>, got <%s>" other)
  | None -> Error "expected an element"

let assembly_of_xml x =
  match Xml.tag x with
  | Some "assembly" ->
      let* name = attr "name" x in
      let* version_s = attr "version" x in
      let* version =
        match int_of_string_opt version_s with
        | Some v -> Ok v
        | None -> Error "bad version"
      in
      let* requires = map_result (attr "name") (Xml.childs "requires" x) in
      let* classes = map_result class_of_xml (Xml.childs "class" x) in
      Ok
        {
          Assembly.asm_name = name;
          asm_version = version;
          asm_classes = classes;
          asm_requires = requires;
        }
  | Some other -> Error (Printf.sprintf "expected <assembly>, got <%s>" other)
  | None -> Error "expected an element"

(* ---------------------------- pipelines ---------------------------- *)

(* Parse, verify the digest, convert: the wire decoders' contract. *)
let decode ~what of_xml s =
  match Xml.parse s with
  | Error e -> Error (Format.asprintf "%a" Xml.pp_error e)
  | Ok x -> (
      match Pti_xml.Digest_attr.verify x with
      | Error e -> Error (Printf.sprintf "corrupt %s: %s" what e)
      | Ok x -> of_xml x)

let td_of_xml_string = decode ~what:"type description" td_of_xml
let assembly_of_string = decode ~what:"assembly" assembly_of_xml
