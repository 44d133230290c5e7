(** The hybrid XML message of Figure 3.

    What actually travels when an object is sent: a human-readable XML
    envelope listing, for every class occurring in the object graph, its
    name, GUID, assembly and download path — plus the serialized object
    itself as an embedded SOAP element or a base64 binary blob. Crucially
    the envelope does {e not} carry the type description or the code; those
    are fetched on demand (the optimistic protocol). *)

open Pti_cts

type codec = Soap | Binary

type type_entry = {
  te_name : string;  (** Qualified class name. *)
  te_guid : Pti_util.Guid.t;
  te_assembly : string;
  te_download_path : string;  (** Where the implementation can be fetched. *)
  te_version : int;
      (** Version of the carrying assembly on its publisher's chain;
          [0] = unversioned (pre-evolution sender). Version 0 is absent
          from canonical bytes, XML attributes and wire frames, so
          pre-evolution envelopes are byte-identical in both
          directions. *)
}

type payload = Psoap of Pti_xml.Xml.t | Pbinary of string

type t = { env_types : type_entry list; env_payload : payload }

type error =
  | Malformed of string
  | Unknown_type of string
  | Corrupt of string
      (** The integrity digest did not match — the envelope (or its
          binary payload's checksum) was damaged on the wire. Decoding
          never yields a mangled value: corruption surfaces here. *)
  | Unknown_handles of int list
      (** A handle-encoded envelope referenced handles the receiver's
          link table cannot resolve (cold cache, restart, eviction) —
          the signal that triggers renegotiation, never a failure of
          the payload itself. *)

val pp_error : Format.formatter -> error -> unit

val digest : t -> string
(** FNV-1a (hex) over the envelope's canonical content — every type
    entry field plus the serialized payload bytes. Written as a
    [digest] attribute by {!to_string}; {!of_string} recomputes and
    compares when the attribute is present (envelopes without one are
    accepted, for pre-digest peers). *)

val make : ?version_of:(assembly:string -> int) -> Registry.t ->
  codec:codec -> download_path:(assembly:string -> string) ->
  Value.value -> t
(** Serializes the value with the chosen codec and collects a [type_entry]
    per distinct class in the graph: the root's class first, the rest
    sorted by qualified name. [version_of] supplies the published chain
    version per assembly (default: 0, unversioned).
    @raise Invalid_argument if a class in the graph is not registered on
    the sending host. *)

val required_classes : t -> string list
(** Names the receiver must have loaded before the payload can decode. *)

val payload_codec : t -> codec

val decode_payload : Registry.t -> t -> (Value.value, error) result
(** Fails with [Unknown_type] when a class is not (yet) loaded — the signal
    that triggers the download subprotocol. Classes named by the
    envelope's type entries decode {e version-pinned}: resolution goes by
    the entry's GUID first and falls back to by-name lookup only when
    that GUID was never registered — so a receiver that upgraded a type
    mid-flight still decodes old envelopes against the old version (the
    upgrade-safety invariant), while pre-evolution registries (where name
    and GUID agree) behave exactly as before. *)

val to_string : t -> string
(** The classic XML envelope: an [<envelope digest=..>] element with one
    [<type>] element per entry and a [<payload>] (SOAP element, or
    base64 text for a binary payload), in the compact canonical
    rendering. Written straight into a reused per-domain buffer, with no
    tree and no per-field string built. *)

val of_string : string -> (t, error) result
(** Reads a classic envelope straight from its bytes into records; only
    a SOAP payload's element becomes an {!Pti_xml.Xml.t}. Unknown
    elements and text between the entries are ignored; only the first
    [<payload>] counts. A [<typeref>] element (a handle reference, which
    only the binary form can carry) makes it [Malformed]. Faults rank in
    a fixed order: an XML syntax error anywhere, then a [<typeref>],
    then the first bad [<type>], then the payload, then a digest
    mismatch ([Corrupt]). *)

val size_bytes : t -> int

(** {2 Negotiated type handles}

    Wire-efficiency layer: after first contact, a type entry on a link
    is a small integer. [`Bind h] ships the full entry together with
    its assigned handle (first use), [`Ref h] ships only the handle,
    [`Plain] is the classic self-describing form. Handle-encoded
    envelopes travel only as compact binary frames, which carry a
    checksum over the literal frame (integrity without a table) and
    the semantic digest over the fully reconstructed envelope (a
    drifted table binding can never deliver a mis-typed payload). *)

type handle_form = [ `Plain | `Bind of int | `Ref of int ]

val to_string_h : t -> form:(type_entry -> handle_form) -> string
(** Renders with the per-entry form chosen by [form] — typically a
    lookup in the sender side of a {!Handle_table} — as a compact
    checksummed binary frame ([PTIE] magic, raw payload bytes, no
    base64). The checksum guards the literal frame; the embedded raw
    semantic digest plays the [digest]-attribute role. *)

val of_string_h :
  resolve:(int -> type_entry option) ->
  string ->
  (t * (int * type_entry) list, error) result
(** Parses a handle-encoded binary frame or, for any other input, a
    classic XML envelope (via {!of_string}, with no bindings). [resolve]
    consults the receiver's link table; bindings shipped in the same
    envelope are visible to its own refs. On success also returns the
    new bindings so the caller can install them. Fails with
    {!Unknown_handles} when refs cannot be resolved (wire-intact — the
    caller should NAK and park), with [Corrupt] on digest mismatch. *)

val wire_ok : string -> bool
(** Frame-level integrity probe: the frame parses and its checksum
    (or, for classic envelopes, semantic digest) matches. Unknown handles
    are a table condition, not wire damage, and leave the frame ok. *)
