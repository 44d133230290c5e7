module Writer = struct
  type t = Buffer.t

  let create ?(initial = 256) () = Buffer.create initial
  let contents = Buffer.contents
  let length = Buffer.length
  let u8 t v = Buffer.add_char t (Char.chr (v land 0xff))

  let rec varint_bits t v =
    if v < 0x80 then u8 t v
    else begin
      u8 t (0x80 lor (v land 0x7f));
      varint_bits t (v lsr 7)
    end

  let varint t v =
    if v < 0 then invalid_arg "Writer.varint: negative";
    varint_bits t v

  let zigzag t v =
    let encoded = (v lsl 1) lxor (v asr (Sys.int_size - 1)) in
    (* The shift may overflow for extreme values; mask to a non-negative
       encoding domain by using Int64 when needed is overkill here — object
       graphs carry human-scale integers. Guard anyway. *)
    if encoded < 0 then invalid_arg "Writer.zigzag: magnitude too large"
    else varint t encoded

  let f64 t v =
    let bits = Int64.bits_of_float v in
    for i = 0 to 7 do
      u8 t (Int64.to_int (Int64.shift_right_logical bits (i * 8)) land 0xff)
    done

  let string t s =
    varint t (String.length s);
    Buffer.add_string t s

  let bool t b = u8 t (if b then 1 else 0)
  let int64_be t v = Buffer.add_int64_be t v
  let raw t s = Buffer.add_string t s
  let blit = Buffer.blit
end

module Reader = struct
  (* Reads [src] from [pos] up to (not including) [stop]: a reader over a
     sealed frame's body shares the frame string instead of copying it. *)
  type t = { src : string; mutable pos : int; stop : int }

  exception Underflow of string

  let create src = { src; pos = 0; stop = String.length src }

  let sub src ~pos ~len =
    if pos < 0 || len < 0 || pos > String.length src - len then
      invalid_arg "Bytes_io.Reader.sub: range out of bounds";
    { src; pos; stop = pos + len }

  let pos t = t.pos
  let at_end t = t.pos >= t.stop
  let remaining t = t.stop - t.pos

  let u8 t =
    if at_end t then raise (Underflow "u8 past end");
    let v = Char.code (String.unsafe_get t.src t.pos) in
    t.pos <- t.pos + 1;
    v

  let rec varint_from t shift acc =
    if shift > Sys.int_size then raise (Underflow "varint too long");
    let b = u8 t in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else varint_from t (shift + 7) acc

  let varint t = varint_from t 0 0

  let zigzag t =
    let v = varint t in
    (v lsr 1) lxor (-(v land 1))

  let f64 t =
    if t.stop - t.pos < 8 then raise (Underflow "f64 past end");
    let bits = String.get_int64_le t.src t.pos in
    t.pos <- t.pos + 8;
    Int64.float_of_bits bits

  (* A varint can decode to a negative or huge length; compare against
     the bytes left rather than [pos + n], which a lying length
     overflows. *)
  let string t =
    let n = varint t in
    if n < 0 || n > t.stop - t.pos then raise (Underflow "string past end");
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s

  let rest t =
    let s = String.sub t.src t.pos (t.stop - t.pos) in
    t.pos <- t.stop;
    s

  let bool t = u8 t <> 0

  let int64_be t =
    if t.stop - t.pos < 8 then raise (Underflow "int64 past end");
    let v = String.get_int64_be t.src t.pos in
    t.pos <- t.pos + 8;
    v

  let expect_magic t m =
    let n = String.length m in
    if n > t.stop - t.pos || String.sub t.src t.pos n <> m then
      raise (Underflow (Printf.sprintf "bad magic, expected %S" m));
    t.pos <- t.pos + n
end

(* ------------------------ checksummed frames ------------------------ *)

let sum_len = 8

(* A loop rather than [String.starts_with], whose local closure allocates. *)
let has_magic ~magic s =
  let n = String.length magic in
  let i = ref 0 in
  while !i < n && !i < String.length s && s.[!i] = magic.[!i] do
    incr i
  done;
  !i = n

let seal ~magic w =
  let m = String.length magic and n = Buffer.length w in
  let frame = Bytes.create (m + sum_len + n) in
  Bytes.blit_string magic 0 frame 0 m;
  Buffer.blit w 0 frame (m + sum_len) n;
  (* Read-only string view for the hash, as [Digest.subbytes] does; the
     sum goes into its own slot, outside the hashed range. *)
  let sum =
    Pti_util.Fnv.hash64 ~pos:(m + sum_len) ~len:n (Bytes.unsafe_to_string frame)
  in
  Bytes.set_int64_be frame m sum;
  Bytes.unsafe_to_string frame

(* The writer is a per-domain spare, so building a frame allocates only
   the frame itself. *)
let spare =
  Pti_util.Spare.make ~create:(fun () -> Writer.create ()) ~clear:Buffer.clear
    ~words:(fun w -> Buffer.length w / (Sys.word_size / 8))

let with_writer f x y = Pti_util.Spare.use spare f x y

let fill_and_seal w magic f =
  f w;
  seal ~magic w

let sealed ~magic f = with_writer fill_and_seal magic f

let fill_and_copy w f x =
  f w x;
  Buffer.contents w

let written f x = with_writer fill_and_copy f x

type frame_error = Truncated | Bad_magic | Bad_checksum

let unseal ~magic s =
  let header = String.length magic + sum_len in
  let n = String.length s in
  if n < header then Error Truncated
  else if not (has_magic ~magic s) then Error Bad_magic
  else if
    not
      (Pti_util.Fnv.sum_matches s ~at:(String.length magic) ~pos:header
         ~len:(n - header))
  then Error Bad_checksum
  else Ok { Reader.src = s; pos = header; stop = n }
