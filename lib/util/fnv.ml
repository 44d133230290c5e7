let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let check_range fn s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg (fn ^ ": range out of bounds")

(* An indexed loop over [unsafe_get] (callers check the range once, up
   front) lets ocamlopt keep the accumulator in a register. Inlined, so a
   caller that consumes the result directly never boxes it either. *)
let[@inline] fold_range h s pos len =
  let h = ref h in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  !h

let hash64 ?(init = offset_basis) ?(pos = 0) ?len s =
  let len = match len with Some n -> n | None -> String.length s - pos in
  check_range "Fnv.hash64" s pos len;
  fold_range init s pos len

let sum_matches s ~at ~pos ~len =
  check_range "Fnv.sum_matches" s pos len;
  fold_range offset_basis s pos len = String.get_int64_be s at

let hex_digits = "0123456789abcdef"

let to_hex h =
  let b = Bytes.create 16 in
  for i = 0 to 15 do
    let nibble =
      Int64.to_int (Int64.shift_right_logical h ((15 - i) * 4)) land 0xf
    in
    Bytes.unsafe_set b i hex_digits.[nibble]
  done;
  Bytes.unsafe_to_string b

let hash_hex s = to_hex (hash64 s)
