(** Type references of the common type system.

    A type reference either names a primitive, refers to a declared class or
    interface by qualified name, or is an array of another reference.
    References are resolved against a {!Registry.t} (locally) or against a
    description resolver (remotely, during conformance checking). *)

type t =
  | Void
  | Bool
  | Int
  | Float
  | String
  | Char
  | Named of string  (** Qualified name, e.g. ["demo.Person"]. *)
  | Array of t

val equal : t -> t -> bool
(** Structural equality; [Named] comparison is case-insensitive, consistent
    with the paper's case-insensitive name rule. *)

val compare : t -> t -> int

val is_primitive : t -> bool
(** True for everything except [Named] and arrays over [Named]. *)

val to_string : t -> string
(** Wire rendering: primitives by keyword, arrays with a ["[]"] suffix. *)

val of_string : string -> t option
(** Inverse of {!to_string}; [None] on malformed input (e.g. dangling
    ["[]"]). *)

val of_sub : string -> int -> int -> t option
(** [of_sub s pos len = of_string (String.sub s pos len)], read in
    place: only a [Named] reference allocates its name. *)

val of_string_exn : string -> t

val element_type : t -> t option
(** [Some e] when the reference is [Array e]. *)

val named_roots : t -> string list
(** The qualified names mentioned by the reference (at most one today, but
    kept as a list for future generic types). Used to know which type
    descriptions a conformance check may need to fetch. *)

val pp : Format.formatter -> t -> unit
