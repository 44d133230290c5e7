(** Integrity digests for XML wire documents.

    A document element gains a [digest] attribute holding the FNV-1a
    hash of its canonical (compact, digest-free) rendering. The reader
    recomputes the hash from what it {e parsed}, so verification is
    position-independent: any byte flip that survives parsing but
    changes what was said mismatches the digest, and any flip that
    breaks parsing fails earlier. Documents without the attribute are
    accepted unchecked (pre-digest writers, pretty-printed display
    output).

    The canonical string is never built. On a tree, the compact
    rendering is fed to a streaming FNV-1a state fragment by fragment
    ({!Xml.hash}). Reading straight from bytes, {!Xml.Reader} streams the
    same rendering while it reads ({!decode}), so a decoder checks the
    digest with no tree at all. Either way adding or verifying a digest
    allocates a constant few dozen words, whatever the document's size.

    Only compact renderings should carry digests: the parser preserves
    whitespace text nodes, so a pretty-printed document would not
    re-render to its canonical form. *)

val attr_name : string
(** ["digest"]. *)

val strip : Xml.t -> Xml.t
(** The element without its [digest] attribute: what the digest covers.
    Non-elements pass through. *)

val add : Xml.t -> Xml.t
(** The element with a freshly computed [digest] attribute (replacing
    any present). Non-elements pass through. *)

val verify : Xml.t -> (Xml.t, string) result
(** [Ok] with the digest attribute stripped when absent or matching;
    [Error] describing the mismatch otherwise. The tree-level reference
    for {!decode}'s streamed check. *)

val reader : string -> Xml.Reader.t
(** A reader whose streamed digest leaves out the root's [digest]
    attribute. *)

val check : Xml.Reader.t -> (unit, string) result
(** Called at [Eof]: [Ok] when the root carried no [digest] or its value
    matches the streamed hash; {!verify}'s verdict on the same bytes. *)

val decode :
  what:string -> string -> (Xml.Reader.t -> 'a) -> ('a, string) result
(** [decode ~what s f] runs the decoder [f] over a {!reader} on [s], then
    reads on to the end of input, whether [f] returned or stopped at its
    first semantic error ({!Xml.Reader.Invalid}). Errors rank as the tree
    path ranked them: a syntax error wins (its {!Xml.pp_error} text, byte
    position included), then a digest mismatch (["corrupt <what>: digest
    mismatch"]), then [f]'s semantic error. [f] may stop anywhere; it must
    raise nothing but {!Xml.Malformed} and {!Xml.Reader.Invalid}. *)
