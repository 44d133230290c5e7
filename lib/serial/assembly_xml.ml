open Pti_cts
module Xml = Pti_xml.Xml
module Guid = Pti_util.Guid
module S = Pti_util.Strutil

(* --- expressions ------------------------------------------------------ *)

let rec expr_to_xml e =
  let open Xml in
  match e with
  | Expr.Const Expr.Cnull -> elt "null" []
  | Expr.Const (Expr.Cbool b) ->
      elt "bool" ~attrs:[ ("v", string_of_bool b) ] []
  | Expr.Const (Expr.Cint i) -> elt "int" ~attrs:[ ("v", string_of_int i) ] []
  | Expr.Const (Expr.Cfloat f) ->
      elt "float" ~attrs:[ ("v", Printf.sprintf "%h" f) ] []
  | Expr.Const (Expr.Cstring s) -> elt "str" ~attrs:[ ("v", s) ] []
  | Expr.Const (Expr.Cchar c) ->
      elt "chr" ~attrs:[ ("v", string_of_int (Char.code c)) ] []
  | Expr.This -> elt "this" []
  | Expr.Var v -> elt "var" ~attrs:[ ("name", v) ] []
  | Expr.Let (v, e1, e2) ->
      elt "let" ~attrs:[ ("name", v) ] [ expr_to_xml e1; expr_to_xml e2 ]
  | Expr.Assign (v, e1) ->
      elt "assign" ~attrs:[ ("name", v) ] [ expr_to_xml e1 ]
  | Expr.Field_get (o, f) ->
      elt "fget" ~attrs:[ ("field", f) ] [ expr_to_xml o ]
  | Expr.Field_set (o, f, v) ->
      elt "fset" ~attrs:[ ("field", f) ] [ expr_to_xml o; expr_to_xml v ]
  | Expr.Call (o, m, args) ->
      elt "call" ~attrs:[ ("name", m) ] (List.map expr_to_xml (o :: args))
  | Expr.Static_call (c, m, args) ->
      elt "scall" ~attrs:[ ("class", c); ("name", m) ]
        (List.map expr_to_xml args)
  | Expr.New (c, args) ->
      elt "new" ~attrs:[ ("class", c) ] (List.map expr_to_xml args)
  | Expr.New_array (ty, items) ->
      elt "newarr" ~attrs:[ ("type", Ty.to_string ty) ]
        (List.map expr_to_xml items)
  | Expr.Index_get (a, i) -> elt "aget" [ expr_to_xml a; expr_to_xml i ]
  | Expr.Index_set (a, i, v) ->
      elt "aset" [ expr_to_xml a; expr_to_xml i; expr_to_xml v ]
  | Expr.Array_length a -> elt "alen" [ expr_to_xml a ]
  | Expr.If (c, t, e) ->
      elt "if" [ expr_to_xml c; expr_to_xml t; expr_to_xml e ]
  | Expr.While (c, b) -> elt "while" [ expr_to_xml c; expr_to_xml b ]
  | Expr.Seq es -> elt "seq" (List.map expr_to_xml es)
  | Expr.Binop (op, a, b) ->
      elt "binop" ~attrs:[ ("op", Expr.binop_name op) ]
        [ expr_to_xml a; expr_to_xml b ]
  | Expr.Unop (op, a) ->
      elt "unop" ~attrs:[ ("op", Expr.unop_name op) ] [ expr_to_xml a ]
  | Expr.Throw a -> elt "throw" [ expr_to_xml a ]
  | Expr.Try (b, v, h) ->
      elt "try" ~attrs:[ ("var", v) ] [ expr_to_xml b; expr_to_xml h ]

(* --- classes ---------------------------------------------------------- *)

let mods_attrs (m : Meta.member_mods) =
  [
    ("visibility", Meta.visibility_to_string m.Meta.visibility);
    ("static", string_of_bool m.Meta.static);
    ("virtual", string_of_bool m.Meta.virtual_);
  ]

let params_to_xml ps =
  List.map
    (fun (p : Meta.param) ->
      Xml.elt "param"
        ~attrs:
          [ ("name", p.Meta.param_name); ("type", Ty.to_string p.Meta.param_ty) ]
        [])
    ps

let body_to_xml tag = function
  | None -> []
  | Some e -> [ Xml.elt tag [ expr_to_xml e ] ]

let class_to_xml (cd : Meta.class_def) =
  let open Xml in
  elt "class"
    ~attrs:
      [
        ("name", cd.Meta.td_name);
        ("namespace", String.concat "." cd.Meta.td_namespace);
        ("guid", Guid.to_string cd.Meta.td_guid);
        ("kind", Meta.kind_to_string cd.Meta.td_kind);
        ("assembly", cd.Meta.td_assembly);
      ]
    (List.concat
       [
         (match cd.Meta.td_super with
         | None -> []
         | Some s -> [ elt "super" ~attrs:[ ("name", s) ] [] ]);
         List.map
           (fun i -> elt "interface" ~attrs:[ ("name", i) ] [])
           cd.Meta.td_interfaces;
         List.map
           (fun (f : Meta.field_def) ->
             elt "field"
               ~attrs:
                 (("name", f.Meta.f_name)
                 :: ("type", Ty.to_string f.Meta.f_ty)
                 :: mods_attrs f.Meta.f_mods)
               (body_to_xml "init" f.Meta.f_init))
           cd.Meta.td_fields;
         List.map
           (fun (c : Meta.ctor_def) ->
             elt "constructor" ~attrs:(mods_attrs c.Meta.c_mods)
               (params_to_xml c.Meta.c_params @ body_to_xml "body" c.Meta.c_body))
           cd.Meta.td_ctors;
         List.map
           (fun (m : Meta.method_def) ->
             elt "method"
               ~attrs:
                 (("name", m.Meta.m_name)
                 :: ("return", Ty.to_string m.Meta.m_return)
                 :: mods_attrs m.Meta.m_mods)
               (params_to_xml m.Meta.m_params @ body_to_xml "body" m.Meta.m_body))
           cd.Meta.td_methods;
       ])

(* --- assemblies ------------------------------------------------------- *)

let to_xml (a : Assembly.t) =
  Xml.elt "assembly"
    ~attrs:
      [
        ("name", a.Assembly.asm_name);
        ("version", string_of_int a.Assembly.asm_version);
      ]
    (List.map
       (fun r -> Xml.elt "requires" ~attrs:[ ("name", r) ] [])
       a.Assembly.asm_requires
    @ List.map class_to_xml a.Assembly.asm_classes)

(* Wire strings carry an integrity digest over the canonical rendering:
   a byte flip that still parses as a (different) assembly would load
   mangled code, so corruption must be caught before loading. *)
let to_string a = Xml.to_string (Pti_xml.Digest_attr.add (to_xml a))

(* --- decoding ----------------------------------------------------- *)

(* Decoding reads the document straight from its bytes through
   {!Xml.Reader}, with the digest streamed as it goes: no tree is built,
   and a value is copied only when the assembly keeps it. It accepts
   exactly what a decoder over the parsed tree would: members in any
   order, unknown members skipped, the first [<body>] (or a field's
   first [<init>]) winning, and every element child of an expression
   itself an expression. The first semantic error stops decoding;
   {!Pti_xml.Digest_attr.decode} then reads on, so a syntax error or a
   digest mismatch later in the document still takes precedence. *)

module R = Xml.Reader

let ty_attr r name what =
  let i = R.required r name in
  match R.value_with r i Ty.of_sub with
  | Some ty -> ty
  | None -> R.invalid "bad %s %S" what (R.value r i)

(* Expressions whose attribute is parsed from a copy. *)
let parsed_attr r name parse what =
  match parse (R.required_value r name) with
  | Some v -> v
  | None -> R.invalid "%s" what

let binops =
  [
    Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.Mod; Expr.Eq; Expr.Neq;
    Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge; Expr.And; Expr.Or; Expr.Concat;
  ]

let leaf r e =
  R.skip r;
  e

(* Called on an expression's start tag; reads through its end. *)
let rec expr r =
  if R.is r "null" then leaf r Expr.null
  else if R.is r "bool" then
    leaf r (Expr.bool (parsed_attr r "v" bool_of_string_opt "bad bool"))
  else if R.is r "int" then
    leaf r (Expr.int (parsed_attr r "v" int_of_string_opt "bad int"))
  else if R.is r "float" then
    let f = parsed_attr r "v" float_of_string_opt "bad float" in
    leaf r (Expr.Const (Expr.Cfloat f))
  else if R.is r "str" then leaf r (Expr.str (R.required_value r "v"))
  else if R.is r "chr" then
    match int_of_string_opt (R.required_value r "v") with
    | Some c when c >= 0 && c < 256 ->
        leaf r (Expr.Const (Expr.Cchar (Char.chr c)))
    | _ -> R.invalid "bad chr"
  else if R.is r "this" then leaf r Expr.This
  else if R.is r "var" then leaf r (Expr.Var (R.required_value r "name"))
  else if R.is r "let" then
    let name = R.required_value r "name" in
    match kids r with
    | [ e1; e2 ] -> Expr.Let (name, e1, e2)
    | _ -> R.invalid "let expects 2 children"
  else if R.is r "assign" then
    let name = R.required_value r "name" in
    match kids r with
    | [ e1 ] -> Expr.Assign (name, e1)
    | _ -> R.invalid "assign expects 1 child"
  else if R.is r "fget" then
    let field = R.required_value r "field" in
    match kids r with
    | [ o ] -> Expr.Field_get (o, field)
    | _ -> R.invalid "fget expects 1 child"
  else if R.is r "fset" then
    let field = R.required_value r "field" in
    match kids r with
    | [ o; v ] -> Expr.Field_set (o, field, v)
    | _ -> R.invalid "fset expects 2 children"
  else if R.is r "call" then
    let name = R.required_value r "name" in
    match kids r with
    | recv :: args -> Expr.Call (recv, name, args)
    | [] -> R.invalid "call expects a receiver"
  else if R.is r "scall" then
    let cls = R.required_value r "class" in
    let name = R.required_value r "name" in
    Expr.Static_call (cls, name, kids r)
  else if R.is r "new" then
    let cls = R.required_value r "class" in
    Expr.New (cls, kids r)
  else if R.is r "newarr" then
    let ty =
      let i = R.required r "type" in
      match R.value_with r i Ty.of_sub with
      | Some ty -> ty
      | None -> R.invalid "bad array type"
    in
    Expr.New_array (ty, kids r)
  else if R.is r "aget" then
    match kids r with
    | [ a; i ] -> Expr.Index_get (a, i)
    | _ -> R.invalid "aget expects 2 children"
  else if R.is r "aset" then
    match kids r with
    | [ a; i; v ] -> Expr.Index_set (a, i, v)
    | _ -> R.invalid "aset expects 3 children"
  else if R.is r "alen" then
    match kids r with
    | [ a ] -> Expr.Array_length a
    | _ -> R.invalid "alen expects 1 child"
  else if R.is r "if" then
    match kids r with
    | [ c; t; e ] -> Expr.If (c, t, e)
    | _ -> R.invalid "if expects 3 children"
  else if R.is r "while" then
    match kids r with
    | [ c; b ] -> Expr.While (c, b)
    | _ -> R.invalid "while expects 2 children"
  else if R.is r "seq" then Expr.Seq (kids r)
  else if R.is r "binop" then
    let op = R.choice r "op" ~what:"binop" Expr.binop_name binops in
    match kids r with
    | [ a; b ] -> Expr.Binop (op, a, b)
    | _ -> R.invalid "binop expects 2 children"
  else if R.is r "unop" then
    let op =
      R.choice r "op" ~what:"unop" Expr.unop_name [ Expr.Neg; Expr.Not ]
    in
    match kids r with
    | [ a ] -> Expr.Unop (op, a)
    | _ -> R.invalid "unop expects 1 child"
  else if R.is r "throw" then
    match kids r with
    | [ a ] -> Expr.Throw a
    | _ -> R.invalid "throw expects 1 child"
  else if R.is r "try" then
    let var = R.required_value r "var" in
    match kids r with
    | [ b; h ] -> Expr.Try (b, var, h)
    | _ -> R.invalid "try expects 2 children"
  else R.invalid "unknown expression tag <%s>" (R.name r)

(* Every element child is an expression; reads through the end. *)
and kids r =
  match R.next_tag r with
  | R.Start ->
      let e = expr r in
      e :: kids r
  | _ -> []

(* A [<body>] or [<init>] just started: exactly one element child, the
   expression. *)
let body r tag =
  match R.next_tag r with
  | R.Start -> (
      let e = expr r in
      match R.next_tag r with
      | R.Start -> R.invalid "<%s> expects one child" tag
      | _ -> e)
  | _ -> R.invalid "<%s> expects one child" tag

let mods_of r =
  let visibility =
    R.choice r "visibility" ~what:"visibility" Meta.visibility_to_string
      [ Meta.Public; Meta.Protected; Meta.Private ]
  in
  let static = R.required_value r "static" in
  let virtual_ = R.required_value r "virtual" in
  match bool_of_string_opt static, bool_of_string_opt virtual_ with
  | Some static, Some virtual_ -> { Meta.visibility; static; virtual_ }
  | _ -> R.invalid "bad modifier booleans"

(* The [<param>] children (when [params]) and the first [<tag>] body of
   the member just started, through its end. *)
let params_and_body r ~params:with_params tag =
  let rec go params bd =
    match R.next_tag r with
    | R.Start when with_params && R.is r "param" ->
        let param_name = R.required_value r "name" in
        let param_ty = ty_attr r "type" "param type" in
        R.skip r;
        go ({ Meta.param_name; param_ty } :: params) bd
    | R.Start when bd = None && R.is r tag -> go params (Some (body r tag))
    | R.Start ->
        R.skip r;
        go params bd
    | _ -> (List.rev params, bd)
  in
  go [] None

type members = {
  mutable super : string option;
  mutable interfaces : string list;
  mutable fields : Meta.field_def list;
  mutable ctors : Meta.ctor_def list;
  mutable methods : Meta.method_def list;
}

let rec read_members r m =
  match R.next_tag r with
  | R.Start ->
      if R.is r "super" then begin
        if m.super = None then m.super <- Some (R.required_value r "name");
        R.skip r
      end
      else if R.is r "interface" then begin
        m.interfaces <- R.required_value r "name" :: m.interfaces;
        R.skip r
      end
      else if R.is r "field" then begin
        let f_name = R.required_value r "name" in
        let f_ty = ty_attr r "type" "field type" in
        let f_mods = mods_of r in
        let _, f_init = params_and_body r ~params:false "init" in
        m.fields <- { Meta.f_name; f_ty; f_mods; f_init } :: m.fields
      end
      else if R.is r "constructor" then begin
        let c_mods = mods_of r in
        let c_params, c_body = params_and_body r ~params:true "body" in
        m.ctors <- { Meta.c_params; c_mods; c_body } :: m.ctors
      end
      else if R.is r "method" then begin
        let m_name = R.required_value r "name" in
        let m_return = ty_attr r "return" "return type" in
        let m_mods = mods_of r in
        let m_params, m_body = params_and_body r ~params:true "body" in
        m.methods <-
          { Meta.m_name; m_params; m_return; m_mods; m_body } :: m.methods
      end
      else R.skip r;
      read_members r m
  | _ -> ()

(* A [<class>] just started; reads through its end. *)
let class_def r =
  let td_name = R.required_value r "name" in
  let td_namespace =
    let ns = R.required_value r "namespace" in
    if ns = "" then [] else S.split_on '.' ns
  in
  let td_guid =
    let g = R.required_value r "guid" in
    match Guid.of_string g with Some g -> g | None -> R.invalid "bad guid %S" g
  in
  let td_kind =
    R.choice r "kind" ~what:"kind" Meta.kind_to_string
      [ Meta.Class; Meta.Interface ]
  in
  let td_assembly = R.required_value r "assembly" in
  let m =
    { super = None; interfaces = []; fields = []; ctors = []; methods = [] }
  in
  read_members r m;
  {
    Meta.td_name;
    td_namespace;
    td_guid;
    td_kind;
    td_super = m.super;
    td_interfaces = List.rev m.interfaces;
    td_fields = List.rev m.fields;
    td_ctors = List.rev m.ctors;
    td_methods = List.rev m.methods;
    td_assembly;
  }

let decode r =
  ignore (R.next_tag r);
  if not (R.is r "assembly") then
    R.invalid "expected <assembly>, got <%s>" (R.name r);
  let asm_name = R.required_value r "name" in
  let asm_version = parsed_attr r "version" int_of_string_opt "bad version" in
  let rec go requires classes =
    match R.next_tag r with
    | R.Start when R.is r "requires" ->
        let name = R.required_value r "name" in
        R.skip r;
        go (name :: requires) classes
    | R.Start when R.is r "class" -> go requires (class_def r :: classes)
    | R.Start ->
        R.skip r;
        go requires classes
    | _ ->
        {
          Assembly.asm_name;
          asm_version;
          asm_classes = List.rev classes;
          asm_requires = List.rev requires;
        }
  in
  go [] []

let of_string s = Pti_xml.Digest_attr.decode ~what:"assembly" s decode
