(* Per-link negotiated type-handle tables.

   The sender assigns a small monotonically increasing integer to every
   distinct type entry it ships on a link; the first envelope carrying
   the type binds handle and entry together ([`Bind]), later envelopes
   ship only the handle ([`Ref]). The receiver keeps a bounded table of
   learned bindings. Handles are never reused — after a sender-side
   reset the counter keeps counting, so a stale binding on the other end
   can only miss (and trigger renegotiation), never alias a different
   type. Correctness never depends on the table: an unknown handle is
   NAKed and the sender re-binds it, and the envelope's semantic digest
   rejects any binding that drifted from the sender's. *)

module Fnv = Pti_util.Fnv
module Guid = Pti_util.Guid

(* ------------------------------ sender ----------------------------- *)

type sender = {
  mutable next_handle : int;
  by_entry : (Envelope.type_entry, int) Hashtbl.t;
  by_handle : (int, Envelope.type_entry) Hashtbl.t;
      (* Reverse map: rebuilding a NAKed binding needs the full entry
         without retaining any envelope. *)
}

let create_sender () =
  { next_handle = 1; by_entry = Hashtbl.create 16; by_handle = Hashtbl.create 16 }

let obtain s entry =
  match Hashtbl.find_opt s.by_entry entry with
  | Some h -> `Known h
  | None ->
      let h = s.next_handle in
      s.next_handle <- h + 1;
      Hashtbl.replace s.by_entry entry h;
      Hashtbl.replace s.by_handle h entry;
      `Fresh h

let entry_for s h = Hashtbl.find_opt s.by_handle h

let reset_sender s =
  Hashtbl.reset s.by_entry;
  Hashtbl.reset s.by_handle

(* ----------------------------- receiver ---------------------------- *)

module ILru = Pti_obs.Lru.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type receiver = Envelope.type_entry ILru.t

let create_receiver ~capacity : receiver = ILru.create ~capacity ()
let install (r : receiver) h entry = ILru.put r h entry
let resolve (r : receiver) h = ILru.find r h
let clear_receiver (r : receiver) = ILru.clear r
let receiver_length (r : receiver) = ILru.length r

(* The peer's shared flyweight pool recycles receiver tables across
   sessions; pooling is only sound between tables of equal capacity. *)
let receiver_capacity (r : receiver) = ILru.capacity r

(* ----------------------------- fingerprints ------------------------ *)

(* Deterministic digests of table state for the model checker's
   state-hash pruning: bindings rendered sorted by handle, FNV-1a over
   the text. Two tables with the same bindings hash equal regardless of
   the order they were learned in. *)

let render_binding buf h (e : Envelope.type_entry) =
  Buffer.add_string buf
    (Printf.sprintf "%d=%s/%s/%s/%s%s\n" h e.Envelope.te_name
       (Guid.to_string e.Envelope.te_guid)
       e.Envelope.te_assembly e.Envelope.te_download_path
       (* Version 0 renders as before so pre-evolution fingerprints are
          unchanged. *)
       (if e.Envelope.te_version > 0 then
          Printf.sprintf "@v%d" e.Envelope.te_version
        else ""))

let fingerprint_sender s =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "next=%d\n" s.next_handle);
  Hashtbl.fold (fun h e acc -> (h, e) :: acc) s.by_handle []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (h, e) -> render_binding buf h e);
  Fnv.hash64 (Buffer.contents buf)

let fingerprint_receiver (r : receiver) =
  let buf = Buffer.create 128 in
  ILru.fold r ~init:[] ~f:(fun h e acc -> (h, e) :: acc)
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (h, e) -> render_binding buf h e);
  Fnv.hash64 (Buffer.contents buf)

(* --------------------------- bind frames --------------------------- *)

(* [Handle_bind] control messages carry renegotiated bindings in a
   checksummed binary frame ({!Bytes_io.seal}) so the chaos harness's
   frame-integrity filter can vet them without structural parsing. *)

module W = Bytes_io.Writer
module R = Bytes_io.Reader

let bind_magic = "PTIH\x01"

let encode_bindings binds =
  let w = W.create () in
  W.varint w (List.length binds);
  List.iter
    (fun (h, e) ->
      W.varint w h;
      W.string w e.Envelope.te_name;
      W.string w (Guid.to_string e.Envelope.te_guid);
      W.string w e.Envelope.te_assembly;
      W.string w e.Envelope.te_download_path)
    binds;
  (* Trailing version block, one varint per binding in frame order —
     emitted only when some binding is versioned, so pre-evolution
     frames stay byte-identical (decoders probe with [at_end]). *)
  if List.exists (fun (_, e) -> e.Envelope.te_version > 0) binds then
    List.iter (fun (_, e) -> W.varint w e.Envelope.te_version) binds;
  Bytes_io.seal ~magic:bind_magic w

let checked_body s =
  match Bytes_io.unseal ~magic:bind_magic s with
  | Ok _ as ok -> ok
  | Error Bytes_io.Truncated -> Error "truncated bind frame"
  | Error Bytes_io.Bad_magic -> Error "bad bind-frame magic"
  | Error Bytes_io.Bad_checksum -> Error "bind-frame checksum mismatch"

let decode_bindings s =
  match checked_body s with
  | Error _ as e -> e
  | Ok r -> (
      try
        let n = R.varint r in
        if n < 0 || n > 100_000 then Error "bad binding count"
        else begin
          let out = ref [] in
          let bad = ref None in
          (try
             for _ = 1 to n do
               let h = R.varint r in
               let te_name = R.string r in
               let guid_s = R.string r in
               let te_assembly = R.string r in
               let te_download_path = R.string r in
               match Guid.of_string guid_s with
               | None -> bad := Some (Printf.sprintf "bad guid %S" guid_s)
               | Some te_guid ->
                   out :=
                     ( h,
                       {
                         Envelope.te_name;
                         te_guid;
                         te_assembly;
                         te_download_path;
                         te_version = 0;
                       } )
                     :: !out
             done;
             (* Trailing version block (absent on pre-evolution frames).
                [!out] is reversed; versions are consumed in frame order,
                so patch over the re-reversed list with explicit
                recursion. *)
             if (not (R.at_end r)) && !bad = None then begin
               let rec patch acc = function
                 | [] -> acc
                 | (h, e) :: rest ->
                     patch
                       ((h, { e with Envelope.te_version = R.varint r })
                       :: acc)
                       rest
               in
               out := patch [] (List.rev !out)
             end
           with R.Underflow m -> bad := Some m);
          match !bad with
          | Some m -> Error m
          | None ->
              if R.at_end r then Ok (List.rev !out)
              else Error "trailing bytes in bind frame"
        end
      with R.Underflow m -> Error m)

let bindings_intact s = Result.is_ok (checked_body s)
