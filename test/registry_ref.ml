(* Member lookups as first written: [find_field] with a closure over the
   wanted name per call, [all_fields] through a table of lowercased
   names and list appends. The library scans the member lists in place
   instead; these stay here as the reference it is compared with.

   One change: the original [find_field] never ended on a superclass
   cycle when the field was absent. [fuel] bounds its walk, which
   changes nothing where the original ended. *)

open Pti_cts
module S = Pti_util.Strutil

let find_field ?(fuel = 10_000) t cd name =
  let matches f = S.equal_ci f.Meta.f_name name in
  let rec go fuel cd =
    match List.find_opt matches cd.Meta.td_fields with
    | Some f -> Some (cd, f)
    | None -> (
        if fuel = 0 then None
        else
          match cd.Meta.td_super with
          | None -> None
          | Some s -> (
              match Registry.find t s with
              | None -> None
              | Some sc -> go (fuel - 1) sc))
  in
  go fuel cd

let all_fields t cd =
  let chain = List.rev (cd :: Registry.super_chain t cd) in
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
