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

let to_string g =
  let b = Bytes.make 36 '-' in
  for k = 0 to 31 do
    let w = if k < 16 then g.hi else g.lo in
    let nibble =
      Int64.to_int (Int64.shift_right_logical w (60 - (4 * (k land 15))))
      land 0xf
    in
    Bytes.unsafe_set b (digit_pos k) hex_digits.[nibble]
  done;
  Bytes.unsafe_to_string b

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let of_string s =
  if
    String.length s <> 36
    || s.[8] <> '-' || s.[13] <> '-' || s.[18] <> '-' || s.[23] <> '-'
  then None
  else begin
    let ok = ref true and hi = ref 0L and lo = ref 0L in
    for k = 0 to 31 do
      let v = hex_val (String.unsafe_get s (digit_pos k)) in
      if v < 0 then ok := false
      else if k < 16 then
        hi := Int64.logor (Int64.shift_left !hi 4) (Int64.of_int v)
      else lo := Int64.logor (Int64.shift_left !lo 4) (Int64.of_int v)
    done;
    if !ok then Some { hi = !hi; lo = !lo } else None
  end

let of_string_exn s =
  match of_string s with
  | Some g -> g
  | None -> invalid_arg (Printf.sprintf "Guid.of_string_exn: %S" s)

let pp ppf g = Format.pp_print_string ppf (to_string g)
