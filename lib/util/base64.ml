let alphabet =
  "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

let encode_to out s =
  let n = String.length s in
  let i = ref 0 in
  while !i + 2 < n do
    let b0 = Char.code s.[!i]
    and b1 = Char.code s.[!i + 1]
    and b2 = Char.code s.[!i + 2] in
    Buffer.add_char out alphabet.[b0 lsr 2];
    Buffer.add_char out alphabet.[((b0 land 0x3) lsl 4) lor (b1 lsr 4)];
    Buffer.add_char out alphabet.[((b1 land 0xf) lsl 2) lor (b2 lsr 6)];
    Buffer.add_char out alphabet.[b2 land 0x3f];
    i := !i + 3
  done;
  match n - !i with
  | 1 ->
      let b0 = Char.code s.[!i] in
      Buffer.add_char out alphabet.[b0 lsr 2];
      Buffer.add_char out alphabet.[(b0 land 0x3) lsl 4];
      Buffer.add_string out "=="
  | 2 ->
      let b0 = Char.code s.[!i] and b1 = Char.code s.[!i + 1] in
      Buffer.add_char out alphabet.[b0 lsr 2];
      Buffer.add_char out alphabet.[((b0 land 0x3) lsl 4) lor (b1 lsr 4)];
      Buffer.add_char out alphabet.[(b1 land 0xf) lsl 2];
      Buffer.add_char out '='
  | _ -> ()

let encode s =
  let out = Buffer.create ((String.length s + 2) / 3 * 4) in
  encode_to out s;
  Buffer.contents out

let value_of = function
  | 'A' .. 'Z' as c -> Char.code c - Char.code 'A'
  | 'a' .. 'z' as c -> Char.code c - Char.code 'a' + 26
  | '0' .. '9' as c -> Char.code c - Char.code '0' + 52
  | '+' -> 62
  | '/' -> 63
  | _ -> -1

(* The quad being read is kept as its 24 bits in [acc], a padding ['=']
   counting as six zero bits. *)
type decoder = {
  out : Buffer.t;
  mutable acc : int;
  mutable k : int;  (* characters of the current quad *)
  mutable pad : int;
  mutable bad : bool;
}

let decoder out = { out; acc = 0; k = 0; pad = 0; bad = false }

let flush d =
  let a = d.acc in
  Buffer.add_char d.out (Char.unsafe_chr (a lsr 16));
  if d.pad < 2 then Buffer.add_char d.out (Char.unsafe_chr ((a lsr 8) land 0xff));
  if d.pad < 1 then Buffer.add_char d.out (Char.unsafe_chr (a land 0xff));
  d.acc <- 0;
  d.k <- 0

let push d v =
  d.acc <- (d.acc lsl 6) lor v;
  d.k <- d.k + 1;
  if d.k = 4 then flush d

let feed d s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Base64.feed: range out of bounds";
  for i = pos to pos + len - 1 do
    if not d.bad then
      match String.unsafe_get s i with
      | ' ' | '\t' | '\n' | '\r' -> ()
      | '=' ->
          (* Padding ends a quad's third or fourth character; data after
             it is caught by the [pad] check below. *)
          if d.k < 2 then d.bad <- true
          else begin
            d.pad <- d.pad + 1;
            push d 0
          end
      | c ->
          let v = value_of c in
          if d.pad > 0 || v < 0 then d.bad <- true else push d v
  done

let finish d = not (d.bad || d.k <> 0 || d.pad > 2)

let decode s =
  let out = Buffer.create (String.length s * 3 / 4) in
  let d = decoder out in
  feed d s 0 (String.length s);
  if finish d then Some (Buffer.contents out) else None

let decode_exn s =
  match decode s with
  | Some v -> v
  | None -> invalid_arg "Base64.decode_exn: malformed input"
