(** 128-bit globally unique identifiers.

    The paper relies on the platform's notion of type identity; .NET uses
    128-bit GUIDs (§5, footnote 5). Two type definitions are {e equal} in
    the conformance rules iff their GUIDs are equal. *)

type t

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val make : Splitmix.t -> t
(** Draw a fresh GUID from a deterministic stream. *)

val of_name : string -> t
(** Deterministic, content-addressed GUID (FNV-1a over the name, widened).
    Used for well-known types such as the CTS primitives so that every peer
    agrees on their identity without coordination. *)

val to_string : t -> string
(** Canonical [xxxxxxxx-xxxx-xxxx-xxxx-xxxxxxxxxxxx] rendering. *)

val blit : t -> Bytes.t -> int -> unit
(** [blit g b pos] writes the 36-character canonical rendering into [b]
    at [pos], for a caller that assembles a key around it.
    @raise Invalid_argument if [b] has fewer than [pos + 36] bytes. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends the canonical rendering, as [Buffer.add_string b (to_string g)]
    would, without building it. *)

val feed : Fnv.state -> t -> unit
(** Absorbs the canonical rendering into a running digest, exactly as
    [Fnv.feed st (to_string g) 0 36] would, without building it. *)

val of_string : string -> t option
(** Parses the canonical rendering (case-insensitive); [None] if malformed. *)

val of_sub : string -> int -> int -> t option
(** [of_sub s pos len] is [of_string (String.sub s pos len)], read in
    place.
    @raise Invalid_argument if the range is not inside [s]. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on malformed input. *)

val pp : Format.formatter -> t -> unit

val nil : t
(** The all-zero GUID; never generated by {!make}. *)
