(** Integrity digests for XML wire documents.

    A document element gains a [digest] attribute holding the FNV-1a
    hash of its canonical (compact, digest-free) rendering. The reader
    recomputes the hash from the {e parsed} tree, so verification is
    position-independent: any byte flip that survives parsing but
    changes what was said mismatches the digest, and any flip that
    breaks parsing fails earlier. Documents without the attribute are
    accepted unchecked (pre-digest writers, pretty-printed display
    output).

    The canonical string is never built: the compact rendering is fed
    to a streaming FNV-1a state fragment by fragment ({!Xml.hash}), so
    adding or verifying a digest allocates a constant few dozen words,
    whatever the document's size.

    Only compact renderings should carry digests: the parser preserves
    whitespace text nodes, so a pretty-printed document would not
    re-render to its canonical form. *)

val attr_name : string
(** ["digest"]. *)

val add : Xml.t -> Xml.t
(** The element with a freshly computed [digest] attribute (replacing
    any present). Non-elements pass through. *)

val verify : Xml.t -> (Xml.t, string) result
(** [Ok] with the digest attribute stripped when absent or matching;
    [Error] describing the mismatch otherwise. *)
