(** XML codec for assemblies — the bytes that travel when a receiver
    downloads code (Figure 1, step 5).

    Unlike type descriptions, assemblies carry full class definitions
    including interpreted method bodies, which is what makes them an order
    of magnitude heavier on the wire. *)

open Pti_cts

val expr_to_xml : Expr.t -> Pti_xml.Xml.t
val class_to_xml : Meta.class_def -> Pti_xml.Xml.t
val to_xml : Assembly.t -> Pti_xml.Xml.t

val to_string : Assembly.t -> string
(** The compact rendering with an integrity digest. *)

val of_string : string -> (Assembly.t, string) result
(** Decodes an [<assembly>], classes and method bodies included,
    straight from its bytes through {!Pti_xml.Xml.Reader}: no tree is
    built and the digest is checked as the bytes stream past
    ({!Pti_xml.Digest_attr.decode}). Members may come in any order;
    unknown members are skipped; the first [<super>], [<body>] or
    field [<init>] wins; every element inside an expression must itself
    be an expression.

    Errors rank: a syntax error (with its byte position), then a digest
    mismatch (["corrupt assembly: digest mismatch"]), then the first
    semantic error. *)
