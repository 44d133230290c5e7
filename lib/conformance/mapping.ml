open Pti_cts
module S = Pti_util.Strutil

type method_map = {
  mm_interest_name : string;
  mm_actual_name : string;
  mm_arity : int;
  mm_perm : int array;
  mm_interest_return : Ty.t;
  mm_actual_return : Ty.t;
  mm_param_tys : Ty.t list;
  mm_actual_param_tys : Ty.t list;
}

type ctor_map = {
  cm_arity : int;
  cm_perm : int array;
  cm_param_tys : Ty.t list;
  cm_actual_param_tys : Ty.t list;
}

type t = {
  interest : string;
  actual : string;
  identity : bool;
  methods : method_map list;
  ctors : ctor_map list;
}

let identity_mapping ~interest ~actual =
  { interest; actual; identity = true; methods = []; ctors = [] }

let rec find_in name arity = function
  | [] -> None
  | mm :: rest ->
      if S.equal_ci mm.mm_interest_name name && mm.mm_arity = arity then
        Some mm
      else find_in name arity rest

let find t ~name ~arity = find_in name arity t.methods

let find_ctor t ~arity =
  List.find_opt (fun cm -> cm.cm_arity = arity) t.ctors

let permute args perm =
  let n = List.length args in
  if n <> Array.length perm then
    invalid_arg "Mapping.permute: arity mismatch";
  if n = 0 then []
  else begin
    let arr = Array.of_list args in
    List.init n (fun j ->
        let i = perm.(j) in
        if i < 0 || i >= n then invalid_arg "Mapping.permute: bad index";
        arr.(i))
  end

let is_identity_perm perm =
  let ok = ref true in
  Array.iteri (fun j i -> if i <> j then ok := false) perm;
  !ok

let pp ppf t =
  Format.fprintf ppf "@[<v>%s => %s%s@," t.interest t.actual
    (if t.identity then " (identity)" else "");
  List.iter
    (fun mm ->
      Format.fprintf ppf "  %s/%d -> %s perm=[%s]@," mm.mm_interest_name
        mm.mm_arity mm.mm_actual_name
        (String.concat ";"
           (List.map string_of_int (Array.to_list mm.mm_perm))))
    t.methods;
  Format.fprintf ppf "@]"
