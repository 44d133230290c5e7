(* Layer replay for the traced run.

   Each workload hands over its own generated inputs — the assemblies it
   published, the values it sent, the class names it checked against its
   interest — and every row below pushes them through one public
   function of one library, timing ns per call and minor-heap words per
   call. Rows are measured one after another, each for a fixed time
   budget, so a row's cost is that layer's cost on this workload's data
   and nothing else. *)

open Pti_cts
module Td = Pti_typedesc.Type_description
module Checker = Pti_conformance.Checker
module Envelope = Pti_serial.Envelope
module Bin = Pti_serial.Bin_ser
module Batch = Pti_serial.Batch_frame
module Asm_xml = Pti_serial.Assembly_xml
module Proxy = Pti_proxy.Dynamic_proxy
module Message_wire = Pti_core.Message_wire

type inputs = {
  assemblies : Assembly.t list;
      (** Every assembly the workload's peers load, the receiver's
          interest assembly included. *)
  values : Value.value list;  (** Objects the workload sends. *)
  actuals : string list;
      (** Sender-side classes the workload's receiver checks against
          [interest]. *)
  interest : string;
  probe : string;  (** Zero-argument method a consumer calls. *)
}

let ok what = function
  | Ok x -> x
  | Error _ -> failwith ("replay: " ^ what ^ " failed on the workload's data")

(* Warm pass over every input (which also checks each call succeeds),
   then whole passes until [budget_ns] has elapsed. *)
let measure ~budget_ns inputs f =
  let n = Array.length inputs in
  if n = 0 then failwith "replay: a row has no inputs";
  Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs;
  let calls = ref 0 in
  let w0 = Gc.minor_words () in
  let t0 = Span.now_ns () in
  let elapsed = ref 0 in
  while !elapsed < budget_ns do
    for i = 0 to n - 1 do
      ignore (Sys.opaque_identity (f (Array.unsafe_get inputs i)))
    done;
    calls := !calls + n;
    elapsed := Span.now_ns () - t0
  done;
  let words = Gc.minor_words () -. w0 in
  let calls = float_of_int !calls in
  (float_of_int !elapsed /. calls, words /. calls)

let chunks k l =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if n = k then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 l

let dedup_assemblies l =
  List.fold_left
    (fun acc a ->
      if List.exists (fun b -> String.equal b.Assembly.asm_name a.Assembly.asm_name) acc
      then acc
      else a :: acc)
    [] l
  |> List.rev

(* [(name, ns per call, words per call)] for every row. *)
let run ?(budget_ms = 40.) inputs =
  let budget_ns = int_of_float (budget_ms *. 1e6) in
  let assemblies = dedup_assemblies inputs.assemblies in
  let reg = Registry.create () in
  List.iter (Assembly.load reg) assemblies;
  let values = Array.of_list inputs.values in
  let encoded = Array.map Bin.encode values in
  let download_path ~assembly = "asm://replay/" ^ assembly in
  let envs =
    Array.map (Envelope.make reg ~codec:Envelope.Binary ~download_path) values
  in
  let env_xml = Array.map Envelope.to_string envs in
  (* A warm link: every type entry already bound to a handle. *)
  let handles = Hashtbl.create 64 in
  Array.iter
    (fun env ->
      List.iter
        (fun te ->
          if not (Hashtbl.mem handles te.Envelope.te_name) then
            Hashtbl.add handles te.Envelope.te_name
              (Hashtbl.length handles + 1, te))
        env.Envelope.env_types)
    envs;
  let by_handle = Hashtbl.create 64 in
  Hashtbl.iter (fun _ (h, te) -> Hashtbl.replace by_handle h te) handles;
  let form te = `Ref (fst (Hashtbl.find handles te.Envelope.te_name)) in
  let resolve h = Hashtbl.find_opt by_handle h in
  let env_h = Array.map (fun env -> Envelope.to_string_h env ~form) envs in
  let msgs =
    Array.map
      (fun e ->
        Pti_core.Message.Obj_msg { envelope = e; tdescs = []; assemblies = [] })
      env_h
  in
  let msg_bytes = Array.map Message_wire.encode msgs in
  let frames =
    chunks 8 (Array.to_list env_h)
    |> List.map (fun es ->
           {
             Batch.parts =
               List.map
                 (fun e ->
                   { Batch.p_envelope = e; p_tdescs = []; p_assemblies = [] })
                 es;
             piggyback = [];
           })
    |> Array.of_list
  in
  let frame_bytes = Array.map Batch.encode frames in
  let descs =
    List.concat_map
      (fun a -> List.map Td.of_class a.Assembly.asm_classes)
      assemblies
    |> Array.of_list
  in
  let desc_xml = Array.map (fun d -> Td.to_xml_string d) descs in
  let desc_bin = Array.map Td.to_binary_string descs in
  let asm_xml = Array.of_list (List.map Asm_xml.to_string assemblies) in
  let desc_of name = Td.of_class (Registry.find_exn reg name) in
  let interest = desc_of inputs.interest in
  let pairs =
    Array.of_list (List.map (fun a -> (desc_of a, interest)) inputs.actuals)
  in
  let checker = Checker.create ~resolver:(Td.registry_resolver reg) () in
  let cx = Proxy.create_context reg checker in
  let proxies =
    Array.of_list
      (List.filter_map
         (fun v ->
           match Proxy.coerce cx ~interest:inputs.interest v with
           | p -> Some p
           | exception Eval.Runtime_error _ -> None)
         inputs.values)
  in
  let probe = inputs.probe in
  let row name inputs f =
    let ns, words = measure ~budget_ns inputs f in
    (name, ns, words)
  in
  [
      row "bin_ser.encode" values Bin.encode;
      row "bin_ser.decode" encoded (fun s -> ok "bin_ser.decode" (Bin.decode reg s));
      row "envelope.xml_encode" envs Envelope.to_string;
      row "envelope.xml_decode" env_xml (fun s ->
          ok "envelope.xml_decode" (Envelope.of_string s));
      row "envelope.handle_encode" envs (fun env -> Envelope.to_string_h env ~form);
      row "envelope.handle_decode" env_h (fun s ->
          ok "envelope.handle_decode" (Envelope.of_string_h ~resolve s));
      row "message_wire.encode" msgs Message_wire.encode;
      row "message_wire.decode" msg_bytes (fun s ->
          ok "message_wire.decode" (Message_wire.decode s));
      row "batch_frame.encode" frames Batch.encode;
      row "batch_frame.decode" frame_bytes (fun s ->
          ok "batch_frame.decode" (Batch.decode s));
      row "checker.check_cold" pairs (fun (actual, interest) ->
          Checker.clear_cache checker;
          Checker.check checker ~actual ~interest);
      row "checker.check_cached" pairs (fun (actual, interest) ->
          Checker.check checker ~actual ~interest);
      row "tdesc.xml_encode" descs (fun d -> Td.to_xml_string d);
      row "tdesc.xml_decode" desc_xml (fun s ->
          ok "tdesc.xml_decode" (Td.of_xml_string s));
      row "tdesc.bin_encode" descs Td.to_binary_string;
      row "tdesc.bin_decode" desc_bin (fun s ->
          ok "tdesc.bin_decode" (Td.of_binary_string s));
      row "assembly_xml.decode" asm_xml (fun s ->
          ok "assembly_xml.decode" (Asm_xml.of_string s));
      row "proxy.invoke_local" proxies (fun p -> Proxy.invoke reg p probe []);
    ]
