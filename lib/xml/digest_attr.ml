let attr_name = "digest"

let strip = function
  | Xml.Element (tag, attrs, children) ->
      Xml.Element
        (tag, List.filter (fun (k, _) -> k <> attr_name) attrs, children)
  | other -> other

(* The canonical rendering is folded into the hash as it is produced. *)
let digest stripped = Pti_util.Fnv.to_hex (Xml.hash stripped)

let mismatch = "digest mismatch"

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
          else Error mismatch)
  | other -> Ok other

let reader s = Xml.Reader.create ~digest:attr_name s

let check r =
  match Xml.Reader.omitted r with
  | None -> Ok ()
  | Some d ->
      if String.equal d (Pti_util.Fnv.to_hex (Xml.Reader.digest r)) then Ok ()
      else Error mismatch

let decode ~what s f =
  let r = reader s in
  match
    let v = match f r with v -> Ok v | exception Xml.Reader.Invalid m -> Error m in
    Xml.Reader.drain r;
    v
  with
  | exception Xml.Malformed e -> Error (Format.asprintf "%a" Xml.pp_error e)
  | v -> (
      match check r with
      | Error m -> Error (Printf.sprintf "corrupt %s: %s" what m)
      | Ok () -> v)
