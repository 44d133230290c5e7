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

(* Per-call bookkeeping (interned names, object ids) lives in
   per-domain spares ({!Pti_util.Spare}), so a steady stream of payloads
   allocates no tables. *)
let grown a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* ------------------------------ encoder ----------------------------- *)

type enc = {
  names : Slots.t;  (* name -> wire index *)
  mutable name_tab : string array;  (* wire index -> name *)
  oids : Slots.t;  (* oid -> wire id *)
}

let enc_spare =
  Pti_util.Spare.make
    ~create:(fun () ->
      {
        names = Slots.create ();
        name_tab = Array.make 16 "";
        oids = Slots.create ();
      })
    ~clear:(fun e ->
      Array.fill e.name_tab 0 (Slots.length e.names) "";
      Slots.clear e.names;
      Slots.clear e.oids)
    ~words:(fun e ->
      Array.length e.name_tab + Slots.words e.names + Slots.words e.oids)

let intern_name e w s =
  let fresh = Slots.length e.names in
  let i = Slots.intern e.names ~names:e.name_tab s fresh in
  W.varint w i;
  if i = fresh then begin
    e.name_tab <- grown e.name_tab (i + 1) "";
    e.name_tab.(i) <- s;
    (* First occurrence carries the text inline. *)
    W.string w s
  end

(* An object's bindings in name order, as [Hashtbl.fold] lists them
   then sorted stably: a shadowed binding ([Hashtbl.add]) follows the one
   that shadows it. Two arrays the size of the table, sorted in place by
   binary insertion: each binding goes after the equal names before it. *)
let sorted_fields fields =
  let n = Hashtbl.length fields in
  let keys = Array.make n "" and vals = Array.make n Value.Vnull in
  let pos = ref n in
  Hashtbl.iter
    (fun k v ->
      decr pos;
      keys.(!pos) <- k;
      vals.(!pos) <- v)
    fields;
  for i = 1 to n - 1 do
    let k = keys.(i) and v = vals.(i) in
    (* The first of [keys.(0 .. i-1)] that sorts after [k]. *)
    let lo = ref 0 and hi = ref i in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if String.compare keys.(mid) k > 0 then hi := mid else lo := mid + 1
    done;
    if !lo < i then begin
      Array.blit keys !lo keys (!lo + 1) (i - !lo);
      Array.blit vals !lo vals (!lo + 1) (i - !lo);
      keys.(!lo) <- k;
      vals.(!lo) <- v
    end
  done;
  (keys, vals)

let rec strip = function Value.Vproxy p -> strip p.Value.px_target | v -> v

let rec write e w v =
  match strip v with
  | Value.Vnull -> W.u8 w t_null
  | Value.Vbool b ->
      W.u8 w t_bool;
      W.bool w b
  | Value.Vint i ->
      W.u8 w t_int;
      W.zigzag w i
  | Value.Vfloat f ->
      W.u8 w t_float;
      W.f64 w f
  | Value.Vstring s ->
      W.u8 w t_string;
      W.string w s
  | Value.Vchar c ->
      W.u8 w t_char;
      W.u8 w (Char.code c)
  | Value.Varr a ->
      W.u8 w t_arr;
      W.string w (Ty.to_string a.Value.elem_ty);
      W.varint w (Array.length a.Value.items);
      for i = 0 to Array.length a.Value.items - 1 do
        write e w a.Value.items.(i)
      done
  | Value.Vobj o ->
      let id = Slots.find e.oids o.Value.oid in
      if id >= 0 then begin
        W.u8 w t_ref;
        W.varint w id
      end
      else begin
        let id = Slots.length e.oids in
        Slots.replace e.oids o.Value.oid id;
        W.u8 w t_obj;
        W.varint w id;
        intern_name e w o.Value.cls;
        let keys, vals = sorted_fields o.Value.fields in
        W.varint w (Array.length keys);
        for i = 0 to Array.length keys - 1 do
          intern_name e w keys.(i);
          write e w vals.(i)
        done
      end
  | Value.Vproxy _ -> assert false

let encode_with e v () = Bytes_io.sealed ~magic (fun w -> write e w v)
let encode v = Pti_util.Spare.use enc_spare encode_with v ()

(* ------------------------------ decoder ----------------------------- *)

type dec = {
  rev_names : Slots.t;  (* wire index -> position in [strs] *)
  mutable strs : string array;
  objects : Slots.t;  (* wire id -> position in [objs] *)
  mutable objs : Value.obj array;
  mutable n_objs : int;
}

(* Filler for emptied object slots; never handed out. *)
let no_obj = { Value.oid = 0; cls = ""; fields = Hashtbl.create 1 }

let new_dec () =
  {
    rev_names = Slots.create ();
    strs = Array.make 16 "";
    objects = Slots.create ();
    objs = Array.make 16 no_obj;
    n_objs = 0;
  }

(* [objs] grows by one per object, not per wire id: a payload that
   reuses one id for every object still makes a spare too big to keep. *)
let dec_spare =
  Pti_util.Spare.make ~create:new_dec
    ~clear:(fun d ->
      Array.fill d.strs 0 (Slots.length d.rev_names) "";
      Array.fill d.objs 0 d.n_objs no_obj;
      Slots.clear d.rev_names;
      Slots.clear d.objects;
      d.n_objs <- 0)
    ~words:(fun d ->
      Array.length d.strs + Array.length d.objs + Slots.words d.rev_names
      + Slots.words d.objects)

let read_name d r =
  let i = R.varint r in
  let p = Slots.find d.rev_names i in
  if p >= 0 then d.strs.(p)
  else begin
    let s = R.string r in
    let p = Slots.length d.rev_names in
    d.strs <- grown d.strs (p + 1) "";
    d.strs.(p) <- s;
    Slots.replace d.rev_names i p;
    s
  end

(* A later object under the same wire id shadows the earlier one. *)
let bind_object d id o =
  let p = d.n_objs in
  d.objs <- grown d.objs (p + 1) no_obj;
  d.objs.(p) <- o;
  d.n_objs <- p + 1;
  Slots.replace d.objects id p

exception Unknown of string

let rec install_defaults o = function
  | [] -> ()
  | f :: rest ->
      Value.set_field o f.Meta.f_name (Value.default_of f.Meta.f_ty);
      install_defaults o rest

let rec read resolve reg d r =
  let tag = R.u8 r in
  if tag = t_null then Value.Vnull
  else if tag = t_bool then Value.Vbool (R.bool r)
  else if tag = t_int then Value.Vint (R.zigzag r)
  else if tag = t_float then Value.Vfloat (R.f64 r)
  else if tag = t_string then Value.Vstring (R.string r)
  else if tag = t_char then Value.Vchar (Char.chr (R.u8 r land 0xff))
  else if tag = t_arr then begin
    let ty_s = R.string r in
    let elem_ty =
      match Ty.of_string ty_s with
      | Some ty -> ty
      | None -> raise (R.Underflow (Printf.sprintf "bad type %S" ty_s))
    in
    let n = R.varint r in
    if n < 0 || n > 10_000_000 then raise (R.Underflow "absurd array length");
    (* Every element takes at least its tag byte: a count past the bytes
       left is a lie, caught before the array is allocated. *)
    if n > R.remaining r then raise (R.Underflow "array length past end");
    let items = Array.make n Value.Vnull in
    for i = 0 to n - 1 do
      items.(i) <- read resolve reg d r
    done;
    Value.Varr { Value.elem_ty; items }
  end
  else if tag = t_ref then begin
    let id = R.varint r in
    let p = Slots.find d.objects id in
    if p >= 0 then Value.Vobj d.objs.(p)
    else raise (R.Underflow (Printf.sprintf "dangling object ref %d" id))
  end
  else if tag = t_obj then begin
    let id = R.varint r in
    let cls = read_name d r in
    let cd =
      match resolve cls with Some cd -> cd | None -> raise (Unknown cls)
    in
    let o =
      {
        Value.oid = Value.fresh_oid ();
        cls = Meta.qualified_name cd;
        fields = Hashtbl.create 8;
      }
    in
    (* Install declared defaults first so missing payload fields are sane. *)
    install_defaults o (Registry.all_fields reg cd);
    bind_object d id o;
    let n = R.varint r in
    for _ = 1 to n do
      let fname = read_name d r in
      let v = read resolve reg d r in
      (* Drop fields the loaded class does not declare. *)
      if Registry.mem_field reg cd fname then Value.set_field o fname v
    done;
    Value.Vobj o
  end
  else raise (R.Underflow (Printf.sprintf "unknown tag %d" tag))

let decode_with d (resolve, reg) r =
  match read resolve reg d r with
  | v -> if R.at_end r then Ok v else Error (Malformed "trailing bytes")
  | exception R.Underflow m -> Error (Malformed m)
  | exception Unknown cls -> Error (Unknown_type cls)

let decode ?resolve reg s =
  match checked_body s with
  | Error e -> Error e
  | Ok r ->
      let resolve =
        match resolve with Some f -> f | None -> Registry.find reg
      in
      Pti_util.Spare.use dec_spare decode_with (resolve, reg) r

(* Walk the payload structure without materializing values. *)
let class_names_body d r =
  let found = ref [] in
  let rec skip () =
    let tag = R.u8 r in
    if tag = t_null then ()
    else if tag = t_bool then ignore (R.bool r)
    else if tag = t_int then ignore (R.zigzag r)
    else if tag = t_float then ignore (R.f64 r)
    else if tag = t_string then ignore (R.string r)
    else if tag = t_char then ignore (R.u8 r)
    else if tag = t_arr then begin
      ignore (R.string r);
      let n = R.varint r in
      for _ = 1 to n do
        skip ()
      done
    end
    else if tag = t_ref then ignore (R.varint r)
    else if tag = t_obj then begin
      ignore (R.varint r);
      let cls = read_name d r in
      if not (List.exists (String.equal cls) !found) then
        found := cls :: !found;
      let n = R.varint r in
      for _ = 1 to n do
        ignore (read_name d r);
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
  | Ok r -> class_names_body (new_dec ()) r
