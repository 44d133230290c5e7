(** A small self-contained XML implementation.

    The paper ships type descriptions and hybrid object envelopes as XML
    messages (§5.2, §6.2); .NET's XML stack is replaced by this module. It
    supports the subset needed on the wire — elements, attributes, character
    data, CDATA, comments and processing instructions — with correct
    escaping and a tolerant parser. *)

type t =
  | Element of string * (string * string) list * t list
      (** [Element (tag, attributes, children)] *)
  | Text of string  (** Character data (unescaped form). *)
  | Cdata of string  (** CDATA section contents. *)
  | Comment of string

(** {1 Construction helpers} *)

val elt : ?attrs:(string * string) list -> string -> t list -> t
val text : string -> t
val leaf : ?attrs:(string * string) list -> string -> string -> t
(** [leaf tag s] is [elt tag [text s]]. *)

(** {1 Accessors} *)

val tag : t -> string option
val attr : string -> t -> string option
val attr_exn : string -> t -> string
val children : t -> t list

val child : string -> t -> t option
(** First child element with the given tag. *)

val child_exn : string -> t -> t
val childs : string -> t -> t list
(** All child elements with the given tag, in document order. *)

val text_content : t -> string
(** Concatenation of all text/CDATA descendants. *)

val path : string list -> t -> t option
(** [path ["a";"b"] x] descends through first-matching children. *)

(** {1 Printing} *)

val escape_text : string -> string
val escape_attr : string -> string

val to_string : ?decl:bool -> t -> string
(** Compact, canonical single-line rendering. [decl] prepends the
    [<?xml version="1.0"?>] declaration (default [false]). *)

val to_string_pretty : ?decl:bool -> ?indent:int -> t -> string
(** Human-readable rendering — the paper stresses that the XML part of the
    envelope is human readable. *)

val hash : t -> int64
(** [Pti_util.Fnv.hash64 (to_string x)], computed without building the
    string: the compact rendering is fed to a streaming FNV-1a state
    fragment by fragment, and text that needs no escaping goes in as
    slices of the tree's own strings. *)

val size_bytes : t -> int
(** Size in bytes of the compact rendering; the network simulator charges
    messages by this. *)

(** {1 Parsing} *)

type error = { position : int; message : string }

val pp_error : Format.formatter -> error -> unit

val parse : string -> (t, error) result
(** Parses one document (prolog and trailing whitespace allowed, comments
    and processing instructions skipped). Returns the root element.
    Total: any string yields [Ok] or [Error]. An element repeating an
    attribute name is malformed (XML 1.0 "Unique Att Spec").

    Markup is recognised in place, and attribute values and text without
    references are sliced straight out of the source: the reader
    allocates the tree it returns and little else. *)

val parse_exn : string -> t
(** @raise Invalid_argument on parse errors. *)
