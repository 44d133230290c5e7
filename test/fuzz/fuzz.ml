(* Seeded mutation fuzzer for the wire decoders: the XML ones
   ([Xml.parse], [Type_description.of_xml_string],
   [Assembly_xml.of_string], and [Envelope.of_string] on classic
   envelopes), the binary ones ([Bin_ser.decode] on PTIB payloads,
   [Envelope.of_string_h] on PTIE handle envelopes) and the stream
   receive path ([Framing.Decoder] fed in random cuts, each frame read
   in place as the stream transport reads it, with [Message_wire.read]).

   It starts from valid wire documents (every flavor of a few workload
   families and the demo types: type descriptions, assemblies, object
   payloads, handle and classic envelopes, and frame streams, some with
   lying or overlong length prefixes), applies a few random byte flips,
   deletions, insertions and truncations, and feeds the result to each
   decoder of its kind. Each call must return [Ok] or [Error] (never
   raise) and allocate at most [ratio] words per word of input, plus a
   fixed allowance for the error message. Allocation counts both heaps
   (minor plus major, less what was promoted), so a block too large for
   the minor heap counts too. A violation prints a reproducible case and
   exits 1.

     fuzz.exe --seed N [--iterations K] *)

module Xml = Pti_xml.Xml
module Td = Pti_typedesc.Type_description
module Axml = Pti_serial.Assembly_xml
module W = Pti_demo.Workload
module Demo = Pti_demo.Demo_types
module Bin = Pti_serial.Bin_ser
module Env = Pti_serial.Envelope
module Value = Pti_cts.Value
module Registry = Pti_cts.Registry
module Fnv = Pti_util.Fnv
module Framing = Pti_serial.Framing
module Bw = Pti_serial.Bytes_io.Writer
module Br = Pti_serial.Bytes_io.Reader
module Message = Pti_core.Message
module Message_wire = Pti_core.Message_wire

(* Words (both heaps) per input word a decoder may allocate, and the
   allowance every call gets on top (a formatted error message, the
   reader). *)
let ratio = 12.
let allowance = 1024.

let flavors = W.[ Conformant; Trap_missing; Trap_arity; Trap_fieldtype; Typo 2 ]

let assemblies =
  List.concat_map
    (fun index -> List.map (fun flavor -> W.family ~index ~flavor) flavors)
    [ 0; 1; 2 ]
  @ [ Demo.news_assembly (); Demo.printer_assembly (); W.interest_assembly () ]

(* Every class of every sample assembly, for the binary decoders. *)
let registry =
  let reg = Registry.create () in
  List.iter
    (fun a -> List.iter (Registry.register reg) a.Pti_cts.Assembly.asm_classes)
    assemblies;
  reg

let xml_samples () =
  let tdescs =
    List.concat_map
      (fun a -> List.map Td.of_class a.Pti_cts.Assembly.asm_classes)
      assemblies
  in
  (* Signed as on the wire, and unsigned, so that mutations also reach
     the decoders' own checks instead of stopping at the digest. *)
  Array.of_list
    (List.concat_map
       (fun d -> [ Td.to_xml_string d; Xml.to_string (Td.to_xml d) ])
       tdescs
    @ List.concat_map
        (fun a -> [ Axml.to_string a; Xml.to_string (Axml.to_xml a) ])
        assemblies)

(* Object graphs: every family's person (one of them married to itself,
   a cycle), a news event, and arrays, one holding the same object twice
   (a shared reference). *)
let values () =
  let persons =
    List.concat_map
      (fun index ->
        List.filter_map
          (fun flavor ->
            match W.make_person registry ~index ~flavor ~name:"Ann" ~age:41 with
            | v -> Some v
            | exception Invalid_argument _ -> None)
          flavors)
      [ 0; 1; 2 ]
  in
  let married =
    match persons with
    | (Value.Vobj o as p) :: _ ->
        Value.set_field o "spouse" p;
        [ p ]
    | _ -> []
  in
  let author = Demo.make_news_person registry ~name:"Bo" ~age:7 in
  let event = Demo.make_news_event registry ~headline:"h" ~author ~priority:2 in
  let arr elem_ty items = Value.Varr { Value.elem_ty; items } in
  persons @ married
  @ [
      event;
      arr Pti_cts.Ty.Int (Array.init 9 (fun i -> Value.Vint (i * 1000)));
      arr (Pti_cts.Ty.Named Demo.news_person) [| author; author; Value.Vnull |];
      arr Pti_cts.Ty.String [| Value.Vstring "x"; Value.Vstring "" |];
    ]

(* Handle bindings the fuzzed receiver knows: those of the first sample
   envelope, so that refs both resolve and miss. *)
let known : (int, Env.type_entry) Hashtbl.t = Hashtbl.create 8

let handle e = 1 + String.length e.Env.te_name

(* The binary frames carry a checksum over the body: a mutated frame is
   resealed half of the time, so mutations also reach the decoders'
   structural checks. *)
let binary_samples () =
  let vs = values () in
  let payloads = List.map Bin.encode vs in
  let envs =
    List.concat_map
      (fun v ->
        let env version =
          Env.make registry ~codec:Env.Binary
            ~version_of:(fun ~assembly:_ -> version)
            ~download_path:(fun ~assembly -> "asm://fuzz/" ^ assembly)
            v
        in
        [ env 0; env 3 ])
      vs
  in
  List.iter
    (fun e -> Hashtbl.replace known (handle e) e)
    (List.hd envs).Env.env_types;
  let forms : (Env.type_entry -> Env.handle_form) list =
    [
      (fun _ -> `Plain);
      (fun e -> `Bind (handle e));
      (fun e -> `Ref (handle e));
    ]
  in
  let frames =
    List.concat_map
      (fun env -> List.map (fun form -> Env.to_string_h env ~form) forms)
      envs
  in
  (Array.of_list payloads, Array.of_list frames)

(* Classic XML envelopes of every sample value, both payload codecs,
   versioned and not; each signed as on the wire and unsigned, so that
   mutations also reach the decoder's own checks. *)
let unsigned doc =
  let key = " digest=\"" in
  let k = String.length key in
  let rec find i =
    if i + k > String.length doc then None
    else if String.sub doc i k = key then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> doc
  | Some i ->
      let close = String.index_from doc (i + k) '"' in
      String.sub doc 0 i ^ String.sub doc (close + 1) (String.length doc - close - 1)

let envelope_samples () =
  let docs =
    List.concat_map
      (fun v ->
        List.concat_map
          (fun (codec, version) ->
            let doc =
              Env.to_string
                (Env.make registry ~codec
                   ~version_of:(fun ~assembly:_ -> version)
                   ~download_path:(fun ~assembly -> "asm://fuzz/" ^ assembly)
                   v)
            in
            [ doc; unsigned doc ])
          [ (Env.Binary, 0); (Env.Soap, 0); (Env.Binary, 3) ])
      (values ())
  in
  Array.of_list docs

(* Frame streams as a stream connection carries them: a hello, then
   data frames of wire messages (classic and handle envelopes, a
   remote call and its reply, fetches, a NAK). Some streams lie: a
   length prefix longer or shorter than its frame, a prefix past the
   frame limit, or one that never ends. *)
let data_frame category m =
  Framing.framed (fun w ->
      Bw.u8 w 0x44;
      Bw.u8 w (Pti_net.Stats.index category);
      Bw.f64 w 1.5;
      Message_wire.write w m)

let rec varint n =
  if n < 0x80 then String.make 1 (Char.chr n)
  else String.make 1 (Char.chr (0x80 lor (n land 0x7f))) ^ varint (n lsr 7)

(* The stream with its first frame's length [n] claimed as [f n]. *)
let relength f stream =
  let rec prefix i shift n =
    let b = Char.code stream.[i] in
    let n = n lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then (i + 1, n) else prefix (i + 1) (shift + 7) n
  in
  let p, n = prefix 0 0 0 in
  varint (f n) ^ String.sub stream p (String.length stream - p)

let stream_samples envelopes frames =
  let hello = Framing.framed (fun w -> Bw.u8 w 0x48; Bw.raw w "fuzz-peer") in
  let cat = Pti_net.Stats.Object_msg in
  let msgs =
    [
      Message.Obj_msg
        { envelope = envelopes.(0); tdescs = [ "t" ]; assemblies = [] };
      Message.Obj_msg { envelope = frames.(0); tdescs = []; assemblies = [ "a" ] };
      Message.Invoke_request
        { target = 3; meth = "setName"; args = envelopes.(1); token = 300 };
      Message.Invoke_reply { token = 300; result = Some envelopes.(2); error = None };
      Message.Tdesc_request
        { type_name = "x.Person"; token = 7; binary_ok = true; version = 2 };
      Message.Asm_reply { path = "asm://x"; assembly = None; token = 9 };
      Message.Handle_nak { handles = [ 1; 300; 70_000 ] };
    ]
  in
  let frames = List.map (data_frame cat) msgs in
  let streams =
    List.mapi
      (fun i _ ->
        hello ^ String.concat "" (List.filteri (fun j _ -> j >= i && j < i + 3) frames))
      frames
  in
  let lying =
    List.concat_map
      (fun st ->
        [
          relength (fun n -> n + 5) st;
          relength (fun n -> max 0 (n - 3)) st;
          varint (Framing.default_max_frame + 1) ^ st;
          String.make 11 '\xff' ^ st;
        ])
      (List.filteri (fun i _ -> i < 3) streams)
  in
  Array.of_list (streams @ lying)

(* Both magics ("PTIB\x02", "PTIE\x01") take 5 bytes, the sum 8. *)
let reseal s =
  let header = 13 in
  if String.length s < header then s
  else
    let body = String.sub s header (String.length s - header) in
    let b = Bytes.of_string s in
    Bytes.set_int64_be b 5 (Fnv.hash64 body);
    Bytes.to_string b

let mutate rng s =
  let s = ref s in
  for _ = 1 to 1 + Random.State.int rng 4 do
    let len = String.length !s in
    if len > 0 then begin
      let i = Random.State.int rng len in
      s :=
        match Random.State.int rng 4 with
        | 0 ->
            String.mapi
              (fun j c ->
                if j = i then Char.chr (Char.code c lxor (1 lsl Random.State.int rng 8))
                else c)
              !s
        | 1 -> String.sub !s 0 i ^ String.sub !s (i + 1) (len - i - 1)
        | 2 ->
            String.sub !s 0 i
            ^ String.make 1 (Char.chr (Random.State.int rng 256))
            ^ String.sub !s i (len - i)
        | _ -> String.sub !s 0 i
    end
  done;
  !s

type outcome = Accepted | Rejected

let xml_decoders =
  [
    ("Xml.parse", fun s -> Result.is_ok (Xml.parse s));
    ("Type_description.of_xml_string", fun s -> Result.is_ok (Td.of_xml_string s));
    ("Assembly_xml.of_string", fun s -> Result.is_ok (Axml.of_string s));
  ]

let ptib_decoders =
  [ ("Bin_ser.decode", fun s -> Result.is_ok (Bin.decode registry s)) ]

let envelope_decoders =
  [ ("Envelope.of_string", fun s -> Result.is_ok (Env.of_string s)) ]

(* One frame, read in place as the stream transport reads it: a
   reader underflow is the transport's integrity drop, anything else
   escaping is a violation. *)
let read_frame r =
  try
    match Br.u8 r with
    | 0x48 -> Br.rest r <> ""
    | 0x44 -> (
        ignore (Br.u8 r);
        ignore (Br.f64 r);
        match Message_wire.read r with Ok _ -> true | Error _ -> false)
    | _ -> false
  with Br.Underflow _ -> false

(* The stream fed to one decoder in random cuts (from their own seeded
   state); true when every frame read back. *)
let stream_decoders cuts =
  [
    ( "Framing.Decoder + Message_wire.read",
      fun s ->
        let dec = Framing.Decoder.create () in
        let ok = ref true and framed = ref true and pos = ref 0 in
        while !framed && !pos < String.length s do
          let n = 1 + Random.State.int cuts (String.length s - !pos) in
          Framing.Decoder.feed dec ~off:!pos ~len:n s;
          pos := !pos + n;
          let rec frames () =
            match Framing.Decoder.next dec with
            | Framing.Decoder.Frame ->
                if not (read_frame (Framing.Decoder.view dec)) then ok := false;
                frames ()
            | Framing.Decoder.Partial -> ()
            | Framing.Decoder.Bad _ -> framed := false
          in
          frames ()
        done;
        !ok && !framed && Framing.Decoder.buffered dec = 0 );
  ]

let ptie_decoders =
  [
    ( "Envelope.of_string_h",
      fun s ->
        Result.is_ok (Env.of_string_h ~resolve:(Hashtbl.find_opt known) s) );
  ]

(* Words allocated on both heaps: a block too large for the minor heap
   goes straight to the major one, and must count too. The minor count
   comes from [Gc.minor_words], which is exact at any point; the minor
   figure of [Gc.counters] jumps across a minor collection. *)
let allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let () =
  let seed = ref 7 and iterations = ref 2000 in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N  mutation seed (default 7)");
      ("--iterations", Arg.Set_int iterations, "K  mutated documents (default 2000)");
    ]
    (fun _ -> raise (Arg.Bad "no positional arguments"))
    "fuzz.exe --seed N [--iterations K]";
  let rng = Random.State.make [| !seed |] in
  let payloads, frames = binary_samples () in
  let envelopes = envelope_samples () in
  (* Kinds added later come last, so the earlier kinds see the same
     mutations under a pinned seed as before. *)
  let kinds =
    [
      (xml_samples (), xml_decoders, false);
      (payloads, ptib_decoders, true);
      (frames, ptie_decoders, true);
      (envelopes, envelope_decoders, false);
      ( stream_samples envelopes frames,
        stream_decoders (Random.State.make [| !seed; 1 |]),
        false );
    ]
  in
  let accepted = ref 0 and rejected = ref 0 and peak = ref 0. in
  let violation fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "fuzz: seed %d: %s\n" !seed msg;
        exit 1)
      fmt
  in
  (* [iterations] documents of each kind, one kind after the other. *)
  List.iter
    (fun (samples, decoders, binary) ->
      for i = 1 to !iterations do
        let s =
          mutate rng samples.(Random.State.int rng (Array.length samples))
        in
        let s = if binary && Random.State.bool rng then reseal s else s in
        let input_words = float_of_int ((String.length s + 7) / 8) in
        let bound = (ratio *. input_words) +. allowance in
        List.iter
          (fun (name, decode) ->
            let before = allocated () in
            let outcome =
              match decode s with
              | true -> Accepted
              | false -> Rejected
              | exception e ->
                  violation "iteration %d: %s raised %s on %S" i name
                    (Printexc.to_string e) s
            in
            let words = allocated () -. before in
            peak := Float.max !peak (words /. bound);
            if words > bound then
              violation "iteration %d: %s allocated %.0f words on %d bytes: %S"
                i name words (String.length s) s;
            match outcome with
            | Accepted -> incr accepted
            | Rejected -> incr rejected)
          decoders
      done)
    kinds;
  Printf.printf
    "fuzz: seed %d: %d documents of each kind (XML, PTIB, PTIE, XML \
     envelope, frame stream), %d decodes accepted, %d rejected, peak \
     allocation %.0f%% of the bound\n"
    !seed !iterations !accepted !rejected (100. *. !peak)
