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

(* The running accumulator lives in 8 bytes, not in an [int64] value:
   reading and writing it with the unboxed [Bytes] primitives around an
   inlined [fold_range] keeps every fragment allocation-free, where
   chaining [hash64 ~init] boxes a fresh accumulator per fragment. *)
type state = Bytes.t

let start () =
  let st = Bytes.create 8 in
  Bytes.set_int64_ne st 0 offset_basis;
  st

let feed st s pos len =
  check_range "Fnv.feed" s pos len;
  Bytes.set_int64_ne st 0 (fold_range (Bytes.get_int64_ne st 0) s pos len)

let value st = Bytes.get_int64_ne st 0

let feed_byte st b =
  Bytes.set_int64_ne st 0
    (Int64.mul
       (Int64.logxor (Bytes.get_int64_ne st 0) (Int64.of_int (b land 0xff)))
       prime)

(* Most significant digit first: the largest power of ten not above [n]
   is found by division, so no digit string is ever built. *)
let feed_decimal st n =
  if n < 0 then invalid_arg "Fnv.feed_decimal: negative";
  let p = ref 1 in
  while n / !p >= 10 do
    p := !p * 10
  done;
  while !p > 0 do
    feed_byte st (Char.code '0' + (n / !p mod 10));
    p := !p / 10
  done

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

let add_hex b h =
  for i = 0 to 15 do
    Buffer.add_char b
      hex_digits.[Int64.to_int (Int64.shift_right_logical h ((15 - i) * 4))
                  land 0xf]
  done

let hash_hex s = to_hex (hash64 s)
