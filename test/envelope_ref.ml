(* The envelope digest as first written: every field rendered as a
   netstring ["<len>:<bytes>"], the length through [string_of_int] and
   the GUID through [Guid.to_string], each fragment chained through
   [Fnv.hash64 ~init]. The library streams the same bytes into one
   [Fnv.state] instead; this stays here as the reference it is compared
   with. *)

module Env = Pti_serial.Envelope
module Fnv = Pti_util.Fnv
module Guid = Pti_util.Guid
module Xml = Pti_xml.Xml

let field h s =
  let h = Fnv.hash64 ~init:h (string_of_int (String.length s)) in
  Fnv.hash64 ~init:(Fnv.hash64 ~init:h ":") s

let fold_entry h (e : Env.type_entry) =
  let h = field h e.Env.te_name in
  let h = field h (Guid.to_string e.Env.te_guid) in
  let h = field h e.Env.te_assembly in
  let h = field h e.Env.te_download_path in
  if e.Env.te_version > 0 then field h ("v" ^ string_of_int e.Env.te_version)
  else h

let fold_payload h = function
  | Env.Psoap x -> field (field h "soap") (Xml.to_string x)
  | Env.Pbinary p -> field (field h "binary") p

let digest64 (t : Env.t) =
  fold_payload
    (List.fold_left fold_entry Fnv.offset_basis t.Env.env_types)
    t.Env.env_payload

let digest t = Fnv.to_hex (digest64 t)
