(** Primitive binary readers/writers shared by the binary codecs, and
    the one checksummed frame layout they all use.

    Integers use LEB128 varints (zigzag for signed), floats are IEEE-754
    little-endian, strings are length-prefixed. *)

module Writer : sig
  type t

  val create : ?initial:int -> unit -> t
  val contents : t -> string
  val length : t -> int
  val u8 : t -> int -> unit
  val varint : t -> int -> unit
  (** Unsigned LEB128; value must be >= 0. *)

  val zigzag : t -> int -> unit
  (** Signed (zigzag) LEB128. *)

  val f64 : t -> float -> unit
  val string : t -> string -> unit
  val bool : t -> bool -> unit

  val int64_be : t -> int64 -> unit
  (** Eight bytes, big-endian (raw digests). *)

  val raw : t -> string -> unit
  (** Append bytes verbatim (magic headers). *)

  val blit : t -> int -> Bytes.t -> int -> int -> unit
  (** [blit w src_pos dst dst_pos len] copies written bytes out, as
      [Buffer.blit]. *)
end

module Reader : sig
  type t

  exception Underflow of string
  (** Raised on truncated or malformed input. *)

  val create : string -> t

  val sub : string -> pos:int -> len:int -> t
  (** A reader over [\[pos, pos + len)] of the string only, sharing it:
      nothing is copied, and no read goes past [pos + len].
      @raise Invalid_argument if the range is not inside the string. *)

  val pos : t -> int
  (** Offset of the next byte in the underlying string. *)

  val at_end : t -> bool

  val remaining : t -> int
  (** Bytes left before the end. *)

  val u8 : t -> int
  val varint : t -> int
  val zigzag : t -> int
  val f64 : t -> float
  val string : t -> string
  (** Length-prefixed; a negative or overlong length raises [Underflow]. *)

  val rest : t -> string
  (** A copy of everything left; the reader is then at its end. *)

  val bool : t -> bool
  val int64_be : t -> int64
  val expect_magic : t -> string -> unit
end

(** {1 Checksummed frames}

    Every binary frame on the wire — object payloads ([PTIB]), handle
    envelopes ([PTIE]), batch frames ([PTIF]), bind frames ([PTIH]) and
    binary type descriptions ([PTID]) — has one layout:

    {v magic | fnv64(body), 8 bytes big-endian | body v}

    The checksum ({!Pti_util.Fnv.hash64} over the body) catches wire
    damage before any structure is parsed. *)

val has_magic : magic:string -> string -> bool
(** [s] starts with [magic]; allocation-free. *)

val seal : magic:string -> Writer.t -> string
(** The frame around the writer's contents, built in one allocation. *)

val sealed : magic:string -> (Writer.t -> unit) -> string
(** [sealed ~magic f] is [seal ~magic w] for an empty writer [w] that
    [f] fills. The writer is a per-domain spare ({!Pti_util.Spare}),
    reused from frame to frame, so building a frame allocates only the
    frame itself. *)

val with_writer : (Writer.t -> 'a -> 'b -> 'c) -> 'a -> 'b -> 'c
(** [with_writer f x y] is [f w x y] for an empty writer [w]: the same
    per-domain spare {!sealed} uses, for code that lays out other
    frames. [w] must not escape [f]. *)

val written : (Writer.t -> 'a -> unit) -> 'a -> string
(** [written f x] is what [f w x] writes into an empty spare writer, as
    a string built in one allocation. *)

type frame_error =
  | Truncated  (** Shorter than magic plus checksum. *)
  | Bad_magic
  | Bad_checksum

val unseal : magic:string -> string -> (Reader.t, frame_error) result
(** Checks magic and checksum in place and returns a reader over the
    body, which shares the frame string: neither the body nor the sum is
    copied. Callers map {!frame_error} to their own errors. *)
