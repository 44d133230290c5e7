module S = Pti_util.Strutil
module Guid = Pti_util.Guid

(* Qualified names are matched case-insensitively by the table itself,
   so a lookup neither lowercases nor copies the name it is given. *)
module Names = Hashtbl.Make (struct
  type t = string

  let equal = S.equal_ci
  let hash = S.hash_ci
end)

type t = {
  by_name : Meta.class_def Names.t;  (* key: lowercased qname *)
  by_guid : (Guid.t, Meta.class_def) Hashtbl.t;
}

exception Duplicate of string

let create () = { by_name = Names.create 64; by_guid = Hashtbl.create 64 }

let key cd = String.lowercase_ascii (Meta.qualified_name cd)

let register t cd =
  (match Meta.validate cd with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Registry.register: " ^ msg));
  let k = key cd in
  match Names.find_opt t.by_name k with
  | Some existing when existing = cd -> ()
  | Some _ -> raise (Duplicate (Meta.qualified_name cd))
  | None ->
      if Hashtbl.mem t.by_guid cd.Meta.td_guid then
        raise (Duplicate (Meta.qualified_name cd));
      Names.replace t.by_name k cd;
      Hashtbl.replace t.by_guid cd.Meta.td_guid cd

(* Live schema evolution: the new definition takes over the qualified
   name, while any previous definition stays reachable by its GUID — an
   in-flight envelope stamped with the old GUID still resolves, which is
   what keeps a rolling upgrade from mis-typing deliveries. *)
let upgrade t cd =
  (match Meta.validate cd with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Registry.upgrade: " ^ msg));
  (match Hashtbl.find_opt t.by_guid cd.Meta.td_guid with
  | Some existing when existing = cd -> ()
  | Some _ -> raise (Duplicate (Meta.qualified_name cd))
  | None -> ());
  Names.replace t.by_name (key cd) cd;
  Hashtbl.replace t.by_guid cd.Meta.td_guid cd

(* The downgrade-safe counterpart: make the definition reachable by GUID
   without disturbing whatever the name currently resolves to — how a
   receiver that already runs v2 absorbs the v1 classes an in-flight old
   envelope still decodes against. The name is bound only when nothing
   holds it yet. *)
let shadow t cd =
  (match Meta.validate cd with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Registry.shadow: " ^ msg));
  match Hashtbl.find_opt t.by_guid cd.Meta.td_guid with
  | Some existing when existing = cd -> ()
  | Some _ -> raise (Duplicate (Meta.qualified_name cd))
  | None ->
      Hashtbl.replace t.by_guid cd.Meta.td_guid cd;
      if not (Names.mem t.by_name (key cd)) then
        Names.replace t.by_name (key cd) cd

let find t name = Names.find_opt t.by_name name

let find_exn t name =
  match find t name with Some cd -> cd | None -> raise Not_found

let find_by_guid t guid = Hashtbl.find_opt t.by_guid guid
let mem t name = find t name <> None
let mem_guid t guid = Hashtbl.mem t.by_guid guid
let all t = Names.fold (fun _ cd acc -> cd :: acc) t.by_name []
let cardinal t = Names.length t.by_name

let copy t =
  { by_name = Names.copy t.by_name; by_guid = Hashtbl.copy t.by_guid }

let super_chain t cd =
  let rec go seen cd acc =
    match cd.Meta.td_super with
    | None -> List.rev acc
    | Some super_name -> (
        let k = String.lowercase_ascii super_name in
        if List.mem k seen then List.rev acc
        else
          match find t super_name with
          | None -> List.rev acc
          | Some super -> go (k :: seen) super (super :: acc))
  in
  go [ key cd ] cd []

let all_interfaces t cd =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec visit_iface name =
    let k = String.lowercase_ascii name in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      match find t name with
      | None -> ()
      | Some icd ->
          acc := icd :: !acc;
          List.iter visit_iface icd.Meta.td_interfaces
    end
  in
  let visit_class cd = List.iter visit_iface cd.Meta.td_interfaces in
  visit_class cd;
  List.iter visit_class (super_chain t cd);
  List.rev !acc

let is_subtype t ~sub ~super =
  if S.equal_ci sub super then true
  else
    match find t sub with
    | None -> false
    | Some cd ->
        let names =
          List.map Meta.qualified_name (super_chain t cd)
          @ List.map Meta.qualified_name (all_interfaces t cd)
        in
        List.exists (fun n -> S.equal_ci n super) names

let find_method t cd name arity =
  let matches m =
    S.equal_ci m.Meta.m_name name && Meta.arity m = arity
  in
  let rec go cd =
    match List.find_opt matches cd.Meta.td_methods with
    | Some m -> Some (cd, m)
    | None -> (
        match cd.Meta.td_super with
        | None -> None
        | Some s -> ( match find t s with None -> None | Some sc -> go sc))
  in
  go cd

let find_field t cd name =
  let matches f = S.equal_ci f.Meta.f_name name in
  let rec go cd =
    match List.find_opt matches cd.Meta.td_fields with
    | Some f -> Some (cd, f)
    | None -> (
        match cd.Meta.td_super with
        | None -> None
        | Some s -> ( match find t s with None -> None | Some sc -> go sc))
  in
  go cd

let all_fields t cd =
  let chain = List.rev (cd :: super_chain t cd) in
  (* Base class first; a derived field shadows a base field of same name. *)
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  List.iter
    (fun c ->
      List.iter
        (fun f ->
          let k = String.lowercase_ascii f.Meta.f_name in
          if Hashtbl.mem seen k then
            (* Replace the shadowed entry in place. *)
            out :=
              List.map
                (fun g ->
                  if S.equal_ci g.Meta.f_name f.Meta.f_name then f else g)
                !out
          else begin
            Hashtbl.add seen k ();
            out := !out @ [ f ]
          end)
        c.Meta.td_fields)
    chain;
  !out

let missing_dependencies t cd =
  let wanted = Hashtbl.create 8 in
  let add_ty ty =
    List.iter
      (fun n ->
        let k = String.lowercase_ascii n in
        if (not (Hashtbl.mem wanted k)) && not (mem t n) then
          Hashtbl.add wanted k n)
      (Ty.named_roots ty)
  in
  let add_name n = add_ty (Ty.Named n) in
  Option.iter add_name cd.Meta.td_super;
  List.iter add_name cd.Meta.td_interfaces;
  List.iter (fun f -> add_ty f.Meta.f_ty) cd.Meta.td_fields;
  List.iter
    (fun m ->
      add_ty m.Meta.m_return;
      List.iter (fun p -> add_ty p.Meta.param_ty) m.Meta.m_params)
    cd.Meta.td_methods;
  List.iter
    (fun c -> List.iter (fun p -> add_ty p.Meta.param_ty) c.Meta.c_params)
    cd.Meta.td_ctors;
  Hashtbl.fold (fun _ n acc -> n :: acc) wanted []
