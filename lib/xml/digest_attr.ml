let attr_name = "digest"

let strip = function
  | Xml.Element (tag, attrs, children) ->
      Xml.Element
        (tag, List.filter (fun (k, _) -> k <> attr_name) attrs, children)
  | other -> other

(* The canonical rendering is folded into the hash as it is produced. *)
let digest stripped = Pti_util.Fnv.to_hex (Xml.hash stripped)

let add x =
  match strip x with
  | Xml.Element (tag, attrs, children) as stripped ->
      Xml.Element (tag, (attr_name, digest stripped) :: attrs, children)
  | other -> other

let verify x =
  match x with
  | Xml.Element (_, attrs, _) -> (
      match List.assoc_opt attr_name attrs with
      | None -> Ok x
      | Some d ->
          let stripped = strip x in
          if String.equal d (digest stripped) then Ok stripped
          else Error "digest mismatch")
  | other -> Ok other
