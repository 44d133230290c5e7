type visibility = Public | Protected | Private

type member_mods = { visibility : visibility; static : bool; virtual_ : bool }

let public_mods = { visibility = Public; static = false; virtual_ = true }

let equal_mods a b =
  a.visibility = b.visibility && a.static = b.static
  && a.virtual_ = b.virtual_

let visibility_to_string = function
  | Public -> "public"
  | Protected -> "protected"
  | Private -> "private"

let visibility_of_string = function
  | "public" -> Some Public
  | "protected" -> Some Protected
  | "private" -> Some Private
  | _ -> None

let pp_mods ppf m =
  Format.fprintf ppf "%s%s%s"
    (visibility_to_string m.visibility)
    (if m.static then " static" else "")
    (if m.virtual_ then " virtual" else "")

type param = { param_name : string; param_ty : Ty.t }

type field_def = {
  f_name : string;
  f_ty : Ty.t;
  f_mods : member_mods;
  f_init : Expr.t option;
}

type method_def = {
  m_name : string;
  m_params : param list;
  m_return : Ty.t;
  m_mods : member_mods;
  m_body : Expr.t option;
}

type ctor_def = {
  c_params : param list;
  c_mods : member_mods;
  c_body : Expr.t option;
}

type kind = Class | Interface

type class_def = {
  td_name : string;
  td_namespace : string list;
  td_guid : Pti_util.Guid.t;
  td_kind : kind;
  td_super : string option;
  td_interfaces : string list;
  td_fields : field_def list;
  td_ctors : ctor_def list;
  td_methods : method_def list;
  td_assembly : string;
}

(* Built in one allocation: the parts are blitted into a buffer of the
   final length. *)
let rec dotted_length = function
  | [] -> 0
  | part :: rest -> String.length part + 1 + dotted_length rest

let rec blit_dotted b pos = function
  | [] -> pos
  | part :: rest ->
      let n = String.length part in
      Bytes.blit_string part 0 b pos n;
      Bytes.set b (pos + n) '.';
      blit_dotted b (pos + n + 1) rest

let qualified_name cd =
  match cd.td_namespace with
  | [] -> cd.td_name
  | ns ->
      let n = String.length cd.td_name in
      let b = Bytes.create (dotted_length ns + n) in
      Bytes.blit_string cd.td_name 0 b (blit_dotted b 0 ns) n;
      Bytes.unsafe_to_string b

let arity m = List.length m.m_params

let params_string ps =
  String.concat ", "
    (List.map (fun p -> Ty.to_string p.param_ty ^ " " ^ p.param_name) ps)

let signature m =
  Printf.sprintf "%s(%s) : %s" m.m_name (params_string m.m_params)
    (Ty.to_string m.m_return)

let ctor_signature c = Printf.sprintf "ctor(%s)" (params_string c.c_params)

let kind_to_string = function Class -> "class" | Interface -> "interface"

let kind_of_string = function
  | "class" -> Some Class
  | "interface" -> Some Interface
  | _ -> None

let strip_bodies cd =
  {
    cd with
    td_fields = List.map (fun f -> { f with f_init = None }) cd.td_fields;
    td_ctors = List.map (fun c -> { c with c_body = None }) cd.td_ctors;
    td_methods = List.map (fun m -> { m with m_body = None }) cd.td_methods;
  }

let validate cd =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let module S = Pti_util.Strutil in
  let dup_by key items =
    let seen = Hashtbl.create 8 in
    List.find_opt
      (fun x ->
        let k = String.lowercase_ascii (key x) in
        if Hashtbl.mem seen k then true
        else begin
          Hashtbl.add seen k ();
          false
        end)
      items
  in
  if not (S.is_identifier cd.td_name) then
    err "invalid class name %S" cd.td_name
  else if List.exists (fun n -> not (S.is_identifier n)) cd.td_namespace then
    err "invalid namespace component in %s" (qualified_name cd)
  else if
    List.exists (fun f -> not (S.is_identifier f.f_name)) cd.td_fields
  then err "invalid field name in %s" (qualified_name cd)
  else if
    List.exists (fun m -> not (S.is_identifier m.m_name)) cd.td_methods
  then err "invalid method name in %s" (qualified_name cd)
  else
    match dup_by (fun f -> f.f_name) cd.td_fields with
    | Some f -> err "duplicate field %S in %s" f.f_name (qualified_name cd)
    | None -> (
        let meth_key m = Printf.sprintf "%s/%d" m.m_name (arity m) in
        match dup_by meth_key cd.td_methods with
        | Some m ->
            err "duplicate method %S/%d in %s" m.m_name (arity m)
              (qualified_name cd)
        | None -> (
            match cd.td_kind with
            | Class -> Ok ()
            | Interface ->
                if cd.td_fields <> [] then
                  err "interface %s declares fields" (qualified_name cd)
                else if cd.td_ctors <> [] then
                  err "interface %s declares constructors" (qualified_name cd)
                else if
                  List.exists (fun m -> m.m_body <> None) cd.td_methods
                then
                  err "interface %s has a method body" (qualified_name cd)
                else Ok ()))
