type t = { hi : int64; lo : int64 }

let compare a b =
  match Int64.unsigned_compare a.hi b.hi with
  | 0 -> Int64.unsigned_compare a.lo b.lo
  | c -> c

let equal a b = a.hi = b.hi && a.lo = b.lo
let hash a = Int64.to_int (Int64.logxor a.hi a.lo) land max_int
let nil = { hi = 0L; lo = 0L }

let make rng =
  let rec draw () =
    let g = { hi = Splitmix.next64 rng; lo = Splitmix.next64 rng } in
    if equal g nil then draw () else g
  in
  draw ()

(* FNV-1a 64-bit, run twice with distinct offset bases to fill 128 bits. *)
let of_name s =
  let hi = Fnv.hash64 ~init:Fnv.offset_basis s in
  let lo = Fnv.hash64 ~init:0x9AE16A3B2F90404FL s in
  let g = { hi; lo } in
  if equal g nil then { hi = 1L; lo = 1L } else g

(* The canonical rendering is 32 hex digits with dashes at 8, 13, 18 and
   23; digit [k] (0 = most significant nibble of [hi]) lands at [k] plus
   the number of dashes before it. *)
let digit_pos k =
  k
  + if k < 8 then 0
    else if k < 12 then 1
    else if k < 16 then 2
    else if k < 20 then 3
    else 4

let hex_digits = "0123456789abcdef"

(* Hex digit [k] of the rendering, 0 being the top nibble of [hi]. *)
let digit g k =
  let w = if k < 16 then g.hi else g.lo in
  let shift = 60 - (4 * (k land 15)) in
  hex_digits.[Int64.to_int (Int64.shift_right_logical w shift) land 0xf]

let blit g b pos =
  Bytes.fill b pos 36 '-';
  for k = 0 to 31 do
    Bytes.set b (pos + digit_pos k) (digit g k)
  done

let to_string g =
  let b = Bytes.create 36 in
  blit g b 0;
  Bytes.unsafe_to_string b

let add_to_buffer b g =
  for k = 0 to 31 do
    if k = 8 || k = 12 || k = 16 || k = 20 then Buffer.add_char b '-';
    Buffer.add_char b (digit g k)
  done

(* The rendering's characters in order, fed instead of stored. *)
let feed st g =
  for k = 0 to 31 do
    if k = 8 || k = 12 || k = 16 || k = 20 then
      Fnv.feed_byte st (Char.code '-');
    Fnv.feed_byte st (Char.code (digit g k))
  done

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let of_sub s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Guid.of_sub: range out of bounds";
  if
    len <> 36
    || s.[pos + 8] <> '-'
    || s.[pos + 13] <> '-'
    || s.[pos + 18] <> '-'
    || s.[pos + 23] <> '-'
  then None
  else begin
    let ok = ref true and hi = ref 0L and lo = ref 0L in
    for k = 0 to 31 do
      let v = hex_val (String.unsafe_get s (pos + digit_pos k)) in
      if v < 0 then ok := false
      else if k < 16 then
        hi := Int64.logor (Int64.shift_left !hi 4) (Int64.of_int v)
      else lo := Int64.logor (Int64.shift_left !lo 4) (Int64.of_int v)
    done;
    if !ok then Some { hi = !hi; lo = !lo } else None
  end

let of_string s = of_sub s 0 (String.length s)

let of_string_exn s =
  match of_string s with
  | Some g -> g
  | None -> invalid_arg (Printf.sprintf "Guid.of_string_exn: %S" s)

let pp ppf g = Format.pp_print_string ppf (to_string g)
