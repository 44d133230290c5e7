open Pti_cts
module W = Bytes_io.Writer
module R = Bytes_io.Reader

type error = Malformed of string | Unknown_type of string | Corrupt of string

let pp_error ppf = function
  | Malformed m -> Format.fprintf ppf "malformed binary payload: %s" m
  | Unknown_type t -> Format.fprintf ppf "unknown type %S" t
  | Corrupt m -> Format.fprintf ppf "corrupt binary payload: %s" m

let magic = "PTIB\x02"

(* Wire layout: {!Bytes_io.seal}. The checksum distinguishes wire
   corruption ([Corrupt]) from structural nonsense ([Malformed]) before
   any value is materialized. *)
let checked_body s =
  match Bytes_io.unseal ~magic s with
  | Ok _ as ok -> ok
  | Error Bytes_io.Truncated -> Error (Malformed "truncated header")
  | Error Bytes_io.Bad_magic -> Error (Malformed "bad magic")
  | Error Bytes_io.Bad_checksum -> Error (Corrupt "checksum mismatch")

(* Value tags. *)
let t_null = 0
and t_bool = 1
and t_int = 2
and t_float = 3
and t_string = 4
and t_char = 5
and t_obj = 6
and t_ref = 7
and t_arr = 8

type intern = {
  w : W.t;
  names : (string, int) Hashtbl.t;
  mutable next_name : int;
  seen : (int, int) Hashtbl.t;  (* oid -> wire id *)
  mutable next_id : int;
}

let intern_name st s =
  match Hashtbl.find_opt st.names s with
  | Some i -> W.varint st.w i
  | None ->
      let i = st.next_name in
      st.next_name <- i + 1;
      Hashtbl.add st.names s i;
      W.varint st.w i;
      (* First occurrence carries the text inline. *)
      W.string st.w s

let rec strip = function Value.Vproxy p -> strip p.Value.px_target | v -> v

let rec write st v =
  match strip v with
  | Value.Vnull -> W.u8 st.w t_null
  | Value.Vbool b ->
      W.u8 st.w t_bool;
      W.bool st.w b
  | Value.Vint i ->
      W.u8 st.w t_int;
      W.zigzag st.w i
  | Value.Vfloat f ->
      W.u8 st.w t_float;
      W.f64 st.w f
  | Value.Vstring s ->
      W.u8 st.w t_string;
      W.string st.w s
  | Value.Vchar c ->
      W.u8 st.w t_char;
      W.u8 st.w (Char.code c)
  | Value.Varr a ->
      W.u8 st.w t_arr;
      W.string st.w (Ty.to_string a.Value.elem_ty);
      W.varint st.w (Array.length a.Value.items);
      Array.iter (write st) a.Value.items
  | Value.Vobj o -> (
      match Hashtbl.find_opt st.seen o.Value.oid with
      | Some id ->
          W.u8 st.w t_ref;
          W.varint st.w id
      | None ->
          let id = st.next_id in
          st.next_id <- id + 1;
          Hashtbl.add st.seen o.Value.oid id;
          W.u8 st.w t_obj;
          W.varint st.w id;
          intern_name st o.Value.cls;
          let bindings =
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) o.Value.fields []
            |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          in
          W.varint st.w (List.length bindings);
          List.iter
            (fun (k, v) ->
              intern_name st k;
              write st v)
            bindings)
  | Value.Vproxy _ -> assert false

let encode v =
  let st =
    {
      w = W.create ();
      names = Hashtbl.create 16;
      next_name = 0;
      seen = Hashtbl.create 16;
      next_id = 0;
    }
  in
  write st v;
  Bytes_io.seal ~magic st.w

type outern = {
  r : R.t;
  rev_names : (int, string) Hashtbl.t;
  objects : (int, Value.obj) Hashtbl.t;
}

let read_name st =
  let i = R.varint st.r in
  match Hashtbl.find_opt st.rev_names i with
  | Some s -> s
  | None ->
      let s = R.string st.r in
      Hashtbl.add st.rev_names i s;
      s

exception Unknown of string

let rec read ?resolve reg st =
  let resolve =
    match resolve with Some f -> f | None -> Registry.find reg
  in
  let tag = R.u8 st.r in
  if tag = t_null then Value.Vnull
  else if tag = t_bool then Value.Vbool (R.bool st.r)
  else if tag = t_int then Value.Vint (R.zigzag st.r)
  else if tag = t_float then Value.Vfloat (R.f64 st.r)
  else if tag = t_string then Value.Vstring (R.string st.r)
  else if tag = t_char then Value.Vchar (Char.chr (R.u8 st.r land 0xff))
  else if tag = t_arr then begin
    let ty_s = R.string st.r in
    let elem_ty =
      match Ty.of_string ty_s with
      | Some ty -> ty
      | None -> raise (R.Underflow (Printf.sprintf "bad type %S" ty_s))
    in
    let n = R.varint st.r in
    if n < 0 || n > 10_000_000 then raise (R.Underflow "absurd array length");
    let items = Array.init n (fun _ -> read ~resolve reg st) in
    Value.Varr { Value.elem_ty; items }
  end
  else if tag = t_ref then begin
    let id = R.varint st.r in
    match Hashtbl.find_opt st.objects id with
    | Some o -> Value.Vobj o
    | None -> raise (R.Underflow (Printf.sprintf "dangling object ref %d" id))
  end
  else if tag = t_obj then begin
    let id = R.varint st.r in
    let cls = read_name st in
    let cd =
      match resolve cls with
      | Some cd -> cd
      | None -> raise (Unknown cls)
    in
    let o =
      { Value.oid = Value.fresh_oid (); cls = Meta.qualified_name cd;
        fields = Hashtbl.create 8 }
    in
    (* Install declared defaults first so missing payload fields are sane. *)
    List.iter
      (fun f ->
        Value.set_field o f.Meta.f_name (Value.default_of f.Meta.f_ty))
      (Registry.all_fields reg cd);
    Hashtbl.add st.objects id o;
    let n = R.varint st.r in
    for _ = 1 to n do
      let fname = read_name st in
      let v = read ~resolve reg st in
      (* Drop fields the loaded class does not declare. *)
      if Registry.find_field reg cd fname <> None then
        Value.set_field o fname v
    done;
    Value.Vobj o
  end
  else raise (R.Underflow (Printf.sprintf "unknown tag %d" tag))

let decode ?resolve reg s =
  match checked_body s with
  | Error e -> Error e
  | Ok r -> (
      let st =
        { r; rev_names = Hashtbl.create 16; objects = Hashtbl.create 16 }
      in
      try
        let v = read ?resolve reg st in
        if not (R.at_end st.r) then Error (Malformed "trailing bytes")
        else Ok v
      with
      | R.Underflow m -> Error (Malformed m)
      | Unknown cls -> Error (Unknown_type cls))

(* Walk the payload structure without materializing values. *)
let class_names_body r =
  let st = { r; rev_names = Hashtbl.create 16; objects = Hashtbl.create 16 } in
  let found = ref [] in
  let rec skip () =
    let tag = R.u8 st.r in
    if tag = t_null then ()
    else if tag = t_bool then ignore (R.bool st.r)
    else if tag = t_int then ignore (R.zigzag st.r)
    else if tag = t_float then ignore (R.f64 st.r)
    else if tag = t_string then ignore (R.string st.r)
    else if tag = t_char then ignore (R.u8 st.r)
    else if tag = t_arr then begin
      ignore (R.string st.r);
      let n = R.varint st.r in
      for _ = 1 to n do
        skip ()
      done
    end
    else if tag = t_ref then ignore (R.varint st.r)
    else if tag = t_obj then begin
      ignore (R.varint st.r);
      let cls = read_name st in
      if not (List.exists (String.equal cls) !found) then
        found := cls :: !found;
      let n = R.varint st.r in
      for _ = 1 to n do
        ignore (read_name st);
        skip ()
      done
    end
    else raise (R.Underflow (Printf.sprintf "unknown tag %d" tag))
  in
  try
    skip ();
    Ok (List.rev !found)
  with R.Underflow m -> Error (Malformed m)

let class_names s =
  match checked_body s with
  | Error e -> Error e
  | Ok r -> class_names_body r
