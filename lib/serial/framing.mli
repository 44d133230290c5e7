(** Length-prefixed framing shared by [Batch_frame] and the stream
    transports, and the varint-counted string lists the wire codecs
    share.

    A frame on a byte stream is a LEB128 varint length followed by that
    many payload bytes. *)

val max_list : int
(** Longest list {!read_list} accepts. *)

val write_string_list : Bytes_io.Writer.t -> string list -> unit

val read_list : Bytes_io.Reader.t -> (Bytes_io.Reader.t -> 'a) -> 'a list
(** A varint count, then that many elements, read in wire order.
    @raise Failure on a count outside [\[0, max_list\]]. *)

val read_string_list : Bytes_io.Reader.t -> string list

val default_max_frame : int
(** 16 MiB: far above any frame the stack sends, far below a parser
    bomb. *)

val framed : (Bytes_io.Writer.t -> unit) -> string
(** [framed f] is the frame whose payload [f] writes: length prefix and
    payload built in one allocation, the payload written into the
    per-domain spare writer ({!Bytes_io.with_writer}). *)

val frame_overhead : int -> int
(** Bytes of length prefix in front of a payload of this size. *)

(** Incremental, partial-read-safe decoding: bytes arrive in arbitrary
    chunks (a read can split a frame, or its length varint, at any byte)
    and complete frames come out as views into the decoder's own buffer,
    with no copy. *)
module Decoder : sig
  type t

  type status =
    | Frame  (** A complete frame: read it through {!view}. *)
    | Partial  (** Nothing complete yet; feed more. *)
    | Bad of string
        (** A length over the limit, or a varint longer than ten bytes:
            the stream cannot be resynchronised. *)

  val create : ?max_frame:int -> unit -> t

  val feed : t -> ?off:int -> ?len:int -> string -> unit
  (** Appends [s.[off, off + len)] (default: from 0, to the end).
      @raise Invalid_argument if the range is not inside [s]. *)

  val buffered : t -> int
  (** Bytes received and not yet handed out. *)

  val next : t -> status
  (** The next frame, if complete. A [Frame] is consumed: the following
      call looks at the frame after it. *)

  val view : t -> Bytes_io.Reader.t
  (** A reader over the payload of the frame {!next} last returned, in
      place. It stays valid until the next {!feed} or {!feed_bytes} on
      this decoder: a reader kept past that may see other bytes. Copy
      what must outlive it ({!Bytes_io.Reader.string},
      {!Bytes_io.Reader.rest}). *)

  val frame_size : t -> int
  (** Length prefix plus payload of that frame: its size on the wire. *)
end
