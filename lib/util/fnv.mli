(** FNV-1a 64-bit checksum.

    Used as the integrity digest on serialized envelopes and binary
    payloads. Not cryptographic — it guards against wire corruption, not
    adversaries. Every absorption step [h <- (h lxor byte) * prime] is a
    bijection of the 64-bit accumulator, so any single-byte substitution
    (and any single bit flip) changes the final hash: a flipped byte is
    always detected.

    Hashing is allocation-free: the accumulator stays unboxed for the
    whole loop, so {!hash64} allocates only its boxed result, whatever
    the input length, and {!sum_matches} allocates nothing. *)

val offset_basis : int64
(** The standard FNV-1a 64 offset basis: the hash of the empty string,
    and the start state for a digest folded field by field through
    [~init]. *)

val hash64 : ?init:int64 -> ?pos:int -> ?len:int -> string -> int64
(** FNV-1a over the bytes of the string. [init] defaults to the standard
    offset basis; pass a previous result to chain several fragments:
    [hash64 ~init:(hash64 a) b = hash64 (a ^ b)].

    [pos] (default 0) and [len] (default: to the end of the string)
    select the range [\[pos, pos + len)] to hash without copying it:
    [hash64 ~pos ~len s = hash64 (String.sub s pos len)].
    @raise Invalid_argument if the range is not inside [s]. *)

val sum_matches : string -> at:int -> pos:int -> len:int -> bool
(** [sum_matches s ~at ~pos ~len] is true iff the 8 bytes of [s] at [at],
    read big-endian, equal [hash64 ~pos ~len s] — a stored checksum
    verified in place, with no boxed intermediate.
    @raise Invalid_argument if either range is not inside [s]. *)

(** {1 Streaming}

    A digest folded fragment by fragment into a mutable state, for
    callers that would otherwise build a string only to hash it. *)

type state
(** A running FNV-1a accumulator. Feeding it allocates nothing: the
    accumulator is never boxed between fragments. *)

val start : unit -> state
(** A fresh state at {!offset_basis}. *)

val feed : state -> string -> int -> int -> unit
(** [feed st s pos len] absorbs the bytes [\[pos, pos + len)] of [s].
    Feeding fragments [a], [b], … leaves the state at [hash64 (a ^ b ^ …)].
    @raise Invalid_argument if the range is not inside [s]. *)

val feed_byte : state -> int -> unit
(** [feed_byte st b] absorbs the single byte [b land 0xff]. *)

val feed_decimal : state -> int -> unit
(** [feed_decimal st n] absorbs the decimal digits of [n], as
    [feed st (string_of_int n)] would, without building the string.
    @raise Invalid_argument if [n] is negative. *)

val value : state -> int64
(** The hash of everything fed so far. *)

val to_hex : int64 -> string
(** 16 lowercase hex digits, zero padded. *)

val add_hex : Buffer.t -> int64 -> unit
(** Appends [to_hex h] without building it. *)

val hash_hex : string -> string
(** [to_hex (hash64 s)]. *)
