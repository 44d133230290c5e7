(* Length-prefixed framing shared by [Batch_frame] and the stream
   transports.

   A frame on a byte stream is a LEB128 varint length followed by that
   many payload bytes. The [Decoder] is incremental and partial-read
   safe: bytes arrive in arbitrary chunks (a TCP read can split a frame
   — or the length varint itself — at any byte boundary) and complete
   frames are handed out as views into the decoder's own buffer. The
   writer side builds a frame's payload in the per-domain spare writer
   and the frame in one allocation; it lives here so both producers
   agree on the prefix encoding.

   Also home to the varint-counted string-list helpers [Batch_frame]
   and the wire codecs share, with the same bound on absurd counts. *)

module W = Bytes_io.Writer
module R = Bytes_io.Reader

let max_list = 100_000

let write_string_list w l =
  W.varint w (List.length l);
  List.iter (W.string w) l

(* Explicit recursion: the element reader is effectful, so evaluation
   order must be the wire order. *)
let read_list r f =
  let n = R.varint r in
  if n < 0 || n > max_list then failwith "bad list length";
  let rec go acc k = if k = 0 then List.rev acc else go (f r :: acc) (k - 1) in
  go [] n

let read_string_list r = read_list r R.string

(* ~16 MB: far above any PTI frame, far below a parser bomb. *)
let default_max_frame = 16 * 1024 * 1024

let rec varint_len n = if n < 0x80 then 1 else 1 + varint_len (n lsr 7)
let frame_overhead payload_len = varint_len payload_len

let rec put_varint b i v =
  if v < 0x80 then Bytes.unsafe_set b i (Char.unsafe_chr v)
  else begin
    Bytes.unsafe_set b i (Char.unsafe_chr (0x80 lor (v land 0x7f)));
    put_varint b (i + 1) (v lsr 7)
  end

(* The frame around what [f] wrote into the spare writer: the length
   prefix goes in front, so the payload is written first and the frame
   is assembled in its one allocation. *)
let fill_and_frame w f () =
  f w;
  let n = W.length w in
  let h = varint_len n in
  let frame = Bytes.create (h + n) in
  put_varint frame 0 n;
  W.blit w 0 frame h n;
  Bytes.unsafe_to_string frame

let framed f = Bytes_io.with_writer fill_and_frame f ()

module Decoder = struct
  (* Received bytes live in [buf.[start, stop)]. A frame handed out by
     [next] is the range [frame_pos, frame_pos + frame_len), left in
     place: bytes only move (compaction, growth) in [feed], so a view
     stays valid until the next feed. *)
  type t = {
    mutable buf : Bytes.t;
    mutable start : int;  (* first unconsumed byte *)
    mutable stop : int;  (* end of the received bytes *)
    mutable prefix : int;  (* size of the length varint [next] last read *)
    mutable frame_pos : int;
    mutable frame_len : int;
    max_frame : int;
  }

  type status = Frame | Partial | Bad of string

  let initial = 4096

  let create ?(max_frame = default_max_frame) () =
    {
      buf = Bytes.create initial;
      start = 0;
      stop = 0;
      prefix = 0;
      frame_pos = 0;
      frame_len = 0;
      max_frame;
    }

  let buffered t = t.stop - t.start

  (* Room for [len] more bytes at [stop]. Consumed bytes are dropped
     only when the new ones would not fit behind them, and the buffer
     grows only when the unconsumed and the new bytes together do not
     fit. Once everything is consumed, a buffer that one large frame
     grew is given up, so a long-lived connection keeps neither its
     history nor its largest frame. *)
  let make_room t len =
    let live = buffered t in
    if live = 0 then begin
      if Bytes.length t.buf > 16 * initial && len <= initial then
        t.buf <- Bytes.create initial;
      t.start <- 0;
      t.stop <- 0
    end;
    if t.stop + len > Bytes.length t.buf then begin
      let size = ref (Bytes.length t.buf) in
      while live + len > !size do
        size := 2 * !size
      done;
      let dst =
        if !size > Bytes.length t.buf then Bytes.create !size else t.buf
      in
      Bytes.blit t.buf t.start dst 0 live;
      t.buf <- dst;
      t.start <- 0;
      t.stop <- live
    end

  let feed t ?(off = 0) ?len s =
    let len = match len with Some l -> l | None -> String.length s - off in
    if off < 0 || len < 0 || off > String.length s - len then
      invalid_arg "Framing.Decoder.feed: range out of bounds";
    make_room t len;
    Bytes.blit_string s off t.buf t.stop len;
    t.stop <- t.stop + len

  (* The length varint at [start], read without committing (its last
     byte may not have arrived yet): its value, with its size in
     [prefix], or [prefix = 0] while it is incomplete. At most ten bytes
     are looked at. *)
  let length_prefix t =
    let avail = buffered t in
    let rec go i shift acc =
      if i >= avail || i > 9 then 0
      else
        let b = Char.code (Bytes.unsafe_get t.buf (t.start + i)) in
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b < 0x80 then begin
          t.prefix <- i + 1;
          acc
        end
        else go (i + 1) (shift + 7) acc
    in
    t.prefix <- 0;
    go 0 0 0

  let next t =
    let len = length_prefix t in
    let hdr = t.prefix in
    if hdr = 0 then
      if buffered t > 10 then Bad "unterminated frame length" else Partial
    else if len < 0 || len > t.max_frame then
      Bad (Printf.sprintf "frame length %d exceeds limit" len)
    else if buffered t < hdr + len then Partial
    else begin
      t.frame_pos <- t.start + hdr;
      t.frame_len <- len;
      t.start <- t.start + hdr + len;
      Frame
    end

  let frame_size t = t.prefix + t.frame_len

  let view t =
    Bytes_io.Reader.sub
      (Bytes.unsafe_to_string t.buf)
      ~pos:t.frame_pos ~len:t.frame_len
end
