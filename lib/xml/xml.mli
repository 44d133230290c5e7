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

exception Malformed of error
(** A syntax error, raised by {!Reader.next}. *)

(** A pull reader: a cursor over the source string that yields one
    token at a time. It is the one implementation of the grammar;
    {!parse} is its tree builder, and the type-description and assembly
    decoders read from it directly, with no tree in between.

    Markup and names are compared in place; an attribute value or text
    is copied only when asked for. The reader's own state is a record and
    two small int arrays (attributes, open elements), reused across tags;
    at end of input the arrays go back to a per-domain spare that the
    next reader takes, so documents read one after another share them.

    With [~digest], the reader also streams the document's canonical
    compact rendering ({!to_string} of the parsed tree) into an FNV-1a
    state as it reads, leaving out the root's attribute of that name:
    {!digest} then equals [Xml.hash] of the parsed tree with that root
    attribute removed, without the tree or the string ever existing. In
    particular [<a></a>] hashes as [<a/>]; text and attribute values are
    decoded, then re-escaped; CDATA and comments inside the root are
    hashed verbatim; processing instructions and everything outside the
    root are not hashed. *)
module Reader : sig
  type t

  type token =
    | Start  (** A start tag; its name and attributes are readable. *)
    | End  (** The end of the innermost open element (also after
               ["/>"]); its name is readable. *)
    | Text  (** Character data; see {!text}. *)
    | Cdata
    | Comment
    | Eof  (** After the root and anything allowed to follow it. *)

  val create : ?digest:string -> string -> t
  (** A reader at the start of the document. [digest] names the root
      attribute the streamed digest leaves out; without it nothing is
      hashed. *)

  val next : t -> token
  (** The next token. Processing instructions, the prolog and trailing
      comments are skipped. After [Eof], [Eof] again.
      @raise Malformed with the same message and byte position {!parse}
      reports; the reader must not be used afterwards. *)

  val next_tag : t -> token
  (** {!next}, skipping [Text], [Cdata] and [Comment]. *)

  val skip : t -> unit
  (** Called on [Start]: reads through the element's matching [End]. *)

  val drain : t -> unit
  (** Reads to [Eof], checking (and hashing) everything on the way. *)

  val is : t -> string -> bool
  (** The current tag's name is exactly this, compared in place. *)

  val name : t -> string
  (** The current tag's name (a copy). *)

  val text : t -> string
  (** The decoded content of the current [Text], [Cdata] or [Comment]. *)

  (** {2 Attributes of the current start tag} *)

  val attr : t -> string -> int
  (** Index of the attribute with this name, or -1. *)

  val value : t -> int -> string
  (** The decoded value of attribute [i] (a copy). *)

  val value_is : t -> int -> string -> bool
  (** Attribute [i]'s decoded value equals this string; compared in
      place unless the value holds a reference. *)

  val value_with : t -> int -> (string -> int -> int -> 'a) -> 'a
  (** [value_with r i f] is [f s pos len] over attribute [i]'s decoded
      value: a range of the source itself when the value holds no
      reference, else a decoded copy. *)

  val attributes : t -> (string * string) list
  (** Every attribute, in document order (copies). *)

  (** {2 Decoding records}

      For decoders that read a document straight into their own values.
      A semantic error is raised as {!Invalid} and ranked below syntax
      errors and digest mismatches by {!Digest_attr.decode}. *)

  exception Invalid of string

  val invalid : ('a, unit, string, 'b) format4 -> 'a
  (** Raises {!Invalid} with the formatted message. *)

  val required : t -> string -> int
  (** {!attr}, or {!Invalid} ["missing attribute \"name\""]. *)

  val required_value : t -> string -> string
  (** The decoded value of a {!required} attribute. *)

  val choice : t -> string -> what:string -> ('a -> string) -> 'a list -> 'a
  (** [choice r name ~what to_string cases]: the case whose [to_string]
      the {!required} attribute [name] holds, compared in place, or
      {!Invalid} ["bad <what> \"<value>\""]. *)

  (** {2 Streamed digest} *)

  val omitted : t -> string option
  (** The decoded value of the root attribute named by [~digest], once
      the root's start tag has been read. *)

  val digest : t -> int64
  (** The FNV-1a hash of the canonical rendering read so far; complete
      at [Eof]. *)
end

val parse : string -> (t, error) result
(** Parses one document (prolog and trailing whitespace allowed, comments
    and processing instructions skipped). Returns the root element.
    Total: any string yields [Ok] or [Error]. An element repeating an
    attribute name is malformed (XML 1.0 "Unique Att Spec"), and so is a
    character reference outside [&#\[0-9\]+;] and [&#x\[0-9a-fA-F\]+;]
    or to a code point that is not an XML [Char] (XML 1.0 [66], [2]).

    Built on {!Reader}: markup is recognised in place, and attribute
    values and text without references are sliced straight out of the
    source, so the reader allocates the tree it returns and little
    else. *)

val parse_exn : string -> t
(** @raise Invalid_argument on parse errors. *)
