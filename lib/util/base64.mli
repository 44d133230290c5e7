(** RFC 4648 base64 (standard alphabet, with padding).

    The hybrid envelope of Figure 3 embeds binary-serialized payloads inside
    an XML message; binary bytes are carried as base64 text. *)

val encode : string -> string

val encode_to : Buffer.t -> string -> unit
(** Appends [encode s] to the buffer without building it. *)

val decode : string -> string option
(** [None] if the input is not well-formed base64 (whitespace is allowed and
    ignored, as producers may line-wrap). *)

val decode_exn : string -> string
(** @raise Invalid_argument on malformed input. *)

(** {1 Streaming decoder}

    For text that arrives in pieces (an XML payload split by CDATA or
    references): feeding [a], [b], … and finishing decodes [a ^ b ^ …]
    exactly as {!decode} does, without the concatenation. *)

type decoder

val decoder : Buffer.t -> decoder
(** A decoder appending the bytes it decodes to the buffer. *)

val feed : decoder -> string -> int -> int -> unit
(** [feed d s pos len] reads the characters [\[pos, pos + len)] of [s].
    @raise Invalid_argument if the range is not inside [s]. *)

val finish : decoder -> bool
(** Whether everything fed was well-formed base64 ending on a quad; the
    buffer then holds the decoded bytes. *)
