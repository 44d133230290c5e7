(* Multi-envelope batch frames.

   The peer coalesces same-destination object sends that happen within
   one simulator instant into a single framed message, amortising
   per-message framing and ARQ/ack overhead. Each part is a complete
   [Obj_msg] worth of content (envelope plus any eager extras); gossip
   digests can ride along as opportunistic piggyback. The frame is
   checksummed ({!Bytes_io.seal}) so wire damage is detected at the
   frame boundary and handled by retransmission, exactly like the binary
   payload codec. *)

module W = Bytes_io.Writer
module R = Bytes_io.Reader

type part = {
  p_envelope : string;
  p_tdescs : string list;
  p_assemblies : string list;
}

type t = {
  parts : part list;
  piggyback : (string * string) list;  (** Gossip [(kind, body)] pairs. *)
}

let magic = "PTIF\x01"

let encode t =
  Bytes_io.sealed ~magic (fun w ->
      W.varint w (List.length t.parts);
      List.iter
        (fun p ->
          W.string w p.p_envelope;
          Framing.write_string_list w p.p_tdescs;
          Framing.write_string_list w p.p_assemblies)
        t.parts;
      W.varint w (List.length t.piggyback);
      List.iter
        (fun (kind, body) ->
          W.string w kind;
          W.string w body)
        t.piggyback)

let checked_body s =
  match Bytes_io.unseal ~magic s with
  | Ok _ as ok -> ok
  | Error Bytes_io.Truncated -> Error "truncated batch frame"
  | Error Bytes_io.Bad_magic -> Error "bad batch-frame magic"
  | Error Bytes_io.Bad_checksum -> Error "batch-frame checksum mismatch"

let read_list = Framing.read_list

let decode s =
  match checked_body s with
  | Error _ as e -> e
  | Ok r -> (
      try
        let parts =
          read_list r (fun r ->
              let p_envelope = R.string r in
              let p_tdescs = read_list r R.string in
              let p_assemblies = read_list r R.string in
              { p_envelope; p_tdescs; p_assemblies })
        in
        let piggyback =
          read_list r (fun r ->
              let kind = R.string r in
              let body = R.string r in
              (kind, body))
        in
        if R.at_end r then Ok { parts; piggyback }
        else Error "trailing bytes in batch frame"
      with
      | R.Underflow m -> Error m
      | Failure m -> Error m)

let intact s = Result.is_ok (checked_body s)
