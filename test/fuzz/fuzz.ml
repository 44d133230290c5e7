(* Seeded mutation fuzzer for the XML decoders: [Xml.parse],
   [Type_description.of_xml_string] and [Assembly_xml.of_string].

   It starts from valid wire documents (every flavor of a few workload
   families and the demo types, type descriptions and assemblies),
   applies a few random byte flips, deletions, insertions and
   truncations, and feeds the result to each decoder. Each call must
   return [Ok] or [Error] (never raise) and allocate at most [ratio]
   words per word of input, plus a fixed allowance for the error
   message. A violation prints a reproducible case and exits 1.

     fuzz.exe --seed N [--iterations K] *)

module Xml = Pti_xml.Xml
module Td = Pti_typedesc.Type_description
module Axml = Pti_serial.Assembly_xml
module W = Pti_demo.Workload
module Demo = Pti_demo.Demo_types

(* Minor words per input word a decoder may allocate, and the allowance
   every call gets on top (a formatted error message, the reader). *)
let ratio = 12.
let allowance = 1024.

let samples () =
  let flavors =
    W.[ Conformant; Trap_missing; Trap_arity; Trap_fieldtype; Typo 2 ]
  in
  let assemblies =
    List.concat_map
      (fun index -> List.map (fun flavor -> W.family ~index ~flavor) flavors)
      [ 0; 1; 2 ]
    @ [ Demo.news_assembly (); Demo.printer_assembly (); W.interest_assembly () ]
  in
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

let decoders =
  [
    ("Xml.parse", fun s -> Result.is_ok (Xml.parse s));
    ("Type_description.of_xml_string", fun s -> Result.is_ok (Td.of_xml_string s));
    ("Assembly_xml.of_string", fun s -> Result.is_ok (Axml.of_string s));
  ]

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
  let samples = samples () in
  let accepted = ref 0 and rejected = ref 0 and peak = ref 0. in
  let violation fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "fuzz: seed %d: %s\n" !seed msg;
        exit 1)
      fmt
  in
  for i = 1 to !iterations do
    let s = mutate rng samples.(Random.State.int rng (Array.length samples)) in
    let input_words = float_of_int ((String.length s + 7) / 8) in
    let bound = (ratio *. input_words) +. allowance in
    List.iter
      (fun (name, decode) ->
        let before = Gc.minor_words () in
        let outcome =
          match decode s with
          | true -> Accepted
          | false -> Rejected
          | exception e ->
              violation "iteration %d: %s raised %s on %S" i name
                (Printexc.to_string e) s
        in
        let words = Gc.minor_words () -. before in
        peak := Float.max !peak (words /. bound);
        if words > bound then
          violation "iteration %d: %s allocated %.0f words on %d bytes: %S" i
            name words (String.length s) s;
        match outcome with Accepted -> incr accepted | Rejected -> incr rejected)
      decoders
  done;
  Printf.printf
    "fuzz: seed %d: %d documents, %d decodes accepted, %d rejected, peak \
     allocation %.0f%% of the bound\n"
    !seed !iterations !accepted !rejected (100. *. !peak)
