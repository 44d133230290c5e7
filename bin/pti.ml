(* pti — command-line driver for the type-interoperability middleware.

   Subcommands:
     describe   parse an IDL file and print a type's XML description
     check      implicit structural conformance between two IDL types
     lint       static interop-hazard analysis over IDL files
     protocol   run the optimistic-vs-eager transfer experiment
     stats      run the workload and print the metrics-registry snapshot
     demo       run the quickstart Person scenario

   Every command evaluates to its exit status: check exits 1 when the
   verdict is NOT CONFORMANT (or the behavioral probe diverges), lint
   exits 1 when any error-severity diagnostic fires. *)

open Cmdliner
open Pti_cts
module Td = Pti_typedesc.Type_description
module Checker = Pti_conformance.Checker
module Config = Pti_conformance.Config
module Mapping = Pti_conformance.Mapping
module Idl = Pti_idl.Idl
module Peer = Pti_core.Peer
module Net = Pti_net.Net
module Stats = Pti_net.Stats
module Demo = Pti_demo.Demo_types
module Workload = Pti_demo.Workload
module Metrics = Pti_obs.Metrics
module Chaos = Pti_fault.Chaos
module Transport = Pti_transport.Transport
module Message_wire = Pti_core.Message_wire
module Proxy = Pti_proxy.Dynamic_proxy
module Scale_driver = Pti_scale.Driver
module Repository = Pti_core.Repository

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Ok s
  with Sys_error msg -> Error msg

(* .vb files go through the VB front end, everything else through the
   C#-flavoured one; both produce the same CTS metadata. The side table
   maps declarations back to source lines for lint diagnostics. *)
let load_located path =
  match read_file path with
  | Error msg -> Error msg
  | Ok src -> (
      let srcmap = Pti_idl.Srcmap.create () in
      if Filename.check_suffix path ".vb" then
        match
          Pti_idl.Vbdl.parse_assembly ~assembly:(Filename.basename path)
            ~srcmap src
        with
        | Ok asm -> Ok (asm, srcmap)
        | Error e ->
            Error (Format.asprintf "%s: %a" path Pti_idl.Vbdl.pp_error e)
      else
        match
          Idl.parse_assembly ~assembly:(Filename.basename path) ~srcmap src
        with
        | Ok asm -> Ok (asm, srcmap)
        | Error e -> Error (Format.asprintf "%s: %a" path Idl.pp_error e))

let load_idl path = Result.map fst (load_located path)

let pick_class asm type_name =
  match type_name with
  | Some n -> (
      match Assembly.find_class asm n with
      | Some cd -> Ok cd
      | None ->
          Error
            (Printf.sprintf "type %S not found (available: %s)" n
               (String.concat ", " (Assembly.class_names asm))))
  | None -> (
      match asm.Assembly.asm_classes with
      | [ cd ] -> Ok cd
      | [] -> Error "the file defines no types"
      | cds ->
          Error
            (Printf.sprintf "several types defined; pick one with --type (%s)"
               (String.concat ", "
                  (List.map Meta.qualified_name cds))))

(* ----------------------------- describe ---------------------------- *)

let describe_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"IDL source file.")
  in
  let type_name =
    Arg.(value & opt (some string) None
         & info [ "type"; "t" ] ~docv:"NAME"
             ~doc:"Qualified name of the type to describe.")
  in
  let run file type_name =
    match load_idl file with
    | Error msg -> `Error (false, msg)
    | Ok asm -> (
        match pick_class asm type_name with
        | Error msg -> `Error (false, msg)
        | Ok cd ->
            print_string (Td.to_xml_string ~pretty:true (Td.of_class cd));
            `Ok 0)
  in
  Cmd.v
    (Cmd.info "describe"
       ~doc:"Print the XML type description (§5.2) of an IDL-defined type.")
    Term.(ret (const run $ file $ type_name))

(* ------------------------------ check ------------------------------ *)

let check_cmd =
  let interest_file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"INTEREST_FILE" ~doc:"IDL file of the type of interest.")
  in
  let actual_file =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"ACTUAL_FILE" ~doc:"IDL file of the candidate type.")
  in
  let interest_type =
    Arg.(value & opt (some string) None
         & info [ "interest-type" ] ~docv:"NAME" ~doc:"Type of interest.")
  in
  let actual_type =
    Arg.(value & opt (some string) None
         & info [ "actual-type" ] ~docv:"NAME" ~doc:"Candidate type.")
  in
  let distance =
    Arg.(value & opt int 0
         & info [ "distance"; "d" ] ~docv:"N"
             ~doc:"Levenshtein threshold for the name rule (paper: 0).")
  in
  let wildcards =
    Arg.(value & flag
         & info [ "wildcards" ] ~doc:"Allow * and ? in interest names.")
  in
  let name_only =
    Arg.(value & flag
         & info [ "name-only" ]
             ~doc:"Use the weak name-only rule (unsafe; see E6).")
  in
  let probe =
    Arg.(value & flag
         & info [ "probe" ]
             ~doc:"After a structural match, run the behavioral probe \
                   (§4.1, primitive methods only).")
  in
  let run interest_file actual_file interest_type actual_type distance
      wildcards name_only probe =
    let ( let* ) r f = match r with Error m -> `Error (false, m) | Ok v -> f v in
    let* interest_asm = load_idl interest_file in
    let* actual_asm = load_idl actual_file in
    let* interest_cd = pick_class interest_asm interest_type in
    let* actual_cd = pick_class actual_asm actual_type in
    let config =
      let base = if name_only then Config.name_only else Config.strict in
      { base with Config.name_distance = distance;
        allow_wildcards = wildcards }
    in
    (* Same-named classes from both files may collide; that's fine, the
       resolver only needs descriptions. *)
    let descs =
      List.map Td.of_class
        (interest_asm.Assembly.asm_classes @ actual_asm.Assembly.asm_classes)
    in
    let checker =
      Checker.create ~config ~resolver:(Td.table_resolver descs) ()
    in
    let interest = Td.of_class interest_cd and actual = Td.of_class actual_cd in
    match Checker.check checker ~actual ~interest with
    | Checker.Conformant m ->
        Format.printf "CONFORMANT: %s can be used as %s@."
          (Td.qualified_name actual)
          (Td.qualified_name interest);
        if not m.Mapping.identity then Format.printf "%a@." Mapping.pp m;
        if probe then begin
          let preg = Registry.create () in
          match
            Assembly.load preg interest_asm;
            Assembly.load preg actual_asm
          with
          | () ->
              let report =
                Pti_conformance.Behavioral.probe preg ~actual:actual_cd
                  ~interest:interest_cd ~mapping:m ()
              in
              Format.printf "%a@." Pti_conformance.Behavioral.pp_report report;
              let agree = Pti_conformance.Behavioral.conformant report in
              Format.printf "behavioral: %s@."
                (if agree then "AGREE on all probed methods" else "DIVERGENT");
              `Ok (if agree then 0 else 1)
          | exception Registry.Duplicate name ->
              Format.printf
                "behavioral probe skipped: type %s defined by both files@."
                name;
              `Ok 0
        end
        else `Ok 0
    | Checker.Not_conformant fs ->
        Format.printf "NOT CONFORMANT: %s cannot be used as %s@."
          (Td.qualified_name actual)
          (Td.qualified_name interest);
        List.iter (fun f -> Format.printf "  - %a@." Checker.pp_failure f) fs;
        `Ok 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Check implicit structural conformance between two IDL types.")
    Term.(
      ret
        (const run $ interest_file $ actual_file $ interest_type $ actual_type
        $ distance $ wildcards $ name_only $ probe))

(* ------------------------------ lint ------------------------------- *)

(* Adapt a parsed file to the lint engine's notion of an input: the
   assembly plus a best-effort subject -> source-line mapping. Member
   lookups fall back to the enclosing type's line. *)
let lint_source path =
  match load_located path with
  | Error msg -> Error msg
  | Ok (asm, sm) ->
      let module Sm = Pti_idl.Srcmap in
      let locate subject =
        let fallback ty l =
          match l with Some _ -> l | None -> Sm.type_loc sm ty
        in
        let l =
          match subject with
          | Pti_lint.Diagnostic.Type t -> Sm.type_loc sm t
          | Pti_lint.Diagnostic.Field (t, f) ->
              fallback t (Sm.field_loc sm ~type_:t f)
          | Pti_lint.Diagnostic.Method (t, m, arity) ->
              fallback t (Sm.method_loc sm ~type_:t m ~arity)
          | Pti_lint.Diagnostic.Ctor (t, arity) ->
              fallback t (Sm.ctor_loc sm ~type_:t ~arity)
        in
        Option.map
          (fun (l : Sm.loc) ->
            { Pti_lint.Diagnostic.line = l.Sm.line; col = l.Sm.col })
          l
      in
      Ok
        {
          Pti_lint.Rules.src_file = path;
          src_assembly = asm;
          src_locate = locate;
        }

let lint_cmd =
  let files =
    Arg.(value & pos_all file []
         & info [] ~docv:"FILE" ~doc:"IDL source files (.idl/.vb) to analyze.")
  in
  let format =
    Arg.(value
         & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: $(b,text) or $(b,json).")
  in
  let rule_specs =
    Arg.(value & opt_all string []
         & info [ "rule"; "r" ] ~docv:"[+|-]CODE"
             ~doc:"Enable (+CODE or CODE) or disable (-CODE) a rule; \
                   repeatable, applied left to right. Spell disables \
                   glued, e.g. $(b,--rule=-PTI004), so the leading dash \
                   is not taken for an option.")
  in
  let severity_specs =
    Arg.(value & opt_all string []
         & info [ "severity" ] ~docv:"CODE=LEVEL"
             ~doc:"Force every diagnostic of a rule to $(b,error), \
                   $(b,warning) or $(b,info); repeatable.")
  in
  let distance =
    Arg.(value & opt int 0
         & info [ "distance"; "d" ] ~docv:"N"
             ~doc:"Levenshtein threshold of the name rule the hazards are \
                   judged against (paper: 0).")
  in
  let near =
    Arg.(value & opt int 2
         & info [ "near" ] ~docv:"N"
             ~doc:"Near-miss window for PTI004: warn about names within \
                   edit distance N but above --distance.")
  in
  let wildcards =
    Arg.(value & flag
         & info [ "wildcards" ] ~doc:"Allow * and ? in interest names.")
  in
  let list_rules =
    Arg.(value & flag
         & info [ "list-rules" ] ~doc:"List the rule catalogue and exit.")
  in
  let run files format rule_specs severity_specs distance near wildcards
      list_rules =
    if list_rules then begin
      List.iter
        (fun (r : Pti_lint.Rules.rule) ->
          Printf.printf "%s %-25s %-8s %s [%s]\n" r.Pti_lint.Rules.code
            r.Pti_lint.Rules.name
            (Pti_lint.Diagnostic.severity_to_string
               r.Pti_lint.Rules.default_severity)
            r.Pti_lint.Rules.doc r.Pti_lint.Rules.paper)
        Pti_lint.Rules.all;
      `Ok 0
    end
    else if files = [] then
      `Error (true, "no input files (use --list-rules to see the catalogue)")
    else
      let apply f set specs =
        List.fold_left
          (fun acc spec ->
            match acc with Error _ -> acc | Ok s -> f s spec)
          (Ok set) specs
      in
      let rule_set =
        Result.bind
          (apply Pti_lint.Rule_set.apply_spec Pti_lint.Rule_set.default
             rule_specs)
          (fun s -> apply Pti_lint.Rule_set.apply_severity s severity_specs)
      in
      match rule_set with
      | Error msg -> `Error (false, msg)
      | Ok rule_set -> (
          let sources =
            List.fold_left
              (fun acc path ->
                match (acc, lint_source path) with
                | Error _, _ -> acc
                | _, Error msg -> Error msg
                | Ok ss, Ok s -> Ok (s :: ss))
              (Ok []) files
          in
          match sources with
          | Error msg -> `Error (false, msg)
          | Ok sources ->
              let sources = List.rev sources in
              let config =
                {
                  Config.strict with
                  Config.name_distance = distance;
                  allow_wildcards = wildcards;
                }
              in
              let diags =
                Pti_lint.Engine.run ~config ~near_distance:near ~rule_set
                  sources
              in
              (match format with
              | `Text -> print_string (Pti_lint.Report.to_text diags)
              | `Json ->
                  print_endline
                    (Pti_lint.Json.to_string (Pti_lint.Report.to_json diags)));
              `Ok (Pti_lint.Report.exit_code diags))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyze IDL files for interop hazards (ambiguous \
             bindings, case collisions, unresolved types, ...). Exits 1 \
             when any error-severity diagnostic fires.")
    Term.(
      ret
        (const run $ files $ format $ rule_specs $ severity_specs $ distance
        $ near $ wildcards $ list_rules))

(* ----------------------------- protocol ---------------------------- *)

(* Shared synthetic-workload runner behind [pti protocol] and [pti stats]:
   one network, a sender publishing K type families, a receiver with one
   interest, [objects] transfers round-robin over the families. Every
   component reports through the single [metrics] registry. *)
let run_workload ~mode ~objects ~distinct ~nonconf ~metrics
    ?(handles = false) ?batch_bytes ?(tdesc_binary = false)
    ?tdesc_cache_capacity ?checker_cache_capacity () =
  let transport = Transport.of_net (Net.create ~seed:17L ~metrics ()) in
  let peer addr =
    Peer.create ~mode ~transport ~metrics ~handles ?batch_bytes ~tdesc_binary
      ~shared:(Peer.create_shared ?tdesc_cache_capacity ?checker_cache_capacity ())
      addr
  in
  let sender = peer "sender" in
  let receiver = peer "receiver" in
  Peer.install_assembly receiver (Demo.news_assembly ());
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> ());
  let flavors =
    Array.init distinct (fun i ->
        if i < nonconf then Workload.Trap_missing else Workload.Conformant)
  in
  Array.iteri
    (fun i flavor ->
      Peer.publish_assembly sender (Workload.family ~index:i ~flavor))
    flavors;
  for n = 0 to objects - 1 do
    let index = n mod distinct in
    let v =
      Workload.make_person (Peer.registry sender) ~index
        ~flavor:flavors.(index)
        ~name:(Printf.sprintf "p%d" n) ~age:n
    in
    Peer.send_value sender ~dst:"receiver" v;
    Transport.run transport
  done;
  let delivered, rejected =
    List.fold_left
      (fun (d, r) ev ->
        match ev with
        | Peer.Delivered _ -> (d + 1, r)
        | Peer.Rejected _ -> (d, r + 1)
        | Peer.Decode_failed _ | Peer.Load_failed _
        | Peer.Corrupt_rejected _ -> (d, r))
      (0, 0) (Peer.events receiver)
  in
  (transport, sender, delivered, rejected)

(* -------------------- protocol over real sockets ------------------- *)

(* Cross-process variant of the workload: the same publish -> conform ->
   deliver pipeline, plus one remote invocation, but over a unix-domain
   or TCP stream fabric. Default layout forks a receiver child; --listen
   / --connect split the two roles across terminals (or machines, for
   tcp). *)

let receiver_addr = "receiver"
let sender_addr = "sender"

(* Dial retries absorb the bind race in forked mode: the sender may try
   to connect before the child's listener exists. *)
let stream_reliability =
  { Pti_net.Arq.retransmit_ms = 50.; max_retries = 8; ack_bytes = 16 }

let stream_fabric kind ?dir ~metrics () =
  match kind with
  | Transport.Unix_socket ->
      Transport.create_unix ?dir ~reliability:stream_reliability ~metrics
        ~codec:Message_wire.codec ()
  | Transport.Tcp ->
      Transport.create_tcp ~reliability:stream_reliability ~metrics
        ~codec:Message_wire.codec ()
  | Transport.Sim -> invalid_arg "stream_fabric: sim is not a stream"

(* How many of the [objects] sends carry a trap (non-conformant) family,
   i.e. must terminate as Rejected rather than Delivered. *)
let expected_rejects ~objects ~distinct ~nonconf =
  let r = ref 0 in
  for n = 0 to objects - 1 do
    if n mod distinct < nonconf then incr r
  done;
  !r

(* The receiver role: serve conformance-checked deliveries and the final
   remote invocation until the sender hangs up (or a deadline passes).
   Returns the exit status; prints its own summary line. *)
let protocol_receiver tr ~mode ~objects ~distinct ~nonconf ~handles
    ?batch_bytes ~tdesc_binary () =
  let hung_up = ref false in
  Transport.on_conn_event tr (function
    | Transport.Disconnected _ -> hung_up := true
    | Transport.Connected _ -> ());
  let peer =
    Peer.create ~mode ~handles ?batch_bytes ~tdesc_binary ~transport:tr
      receiver_addr
  in
  let delivered = ref 0 in
  Peer.install_assembly peer (Demo.news_assembly ());
  Peer.register_interest peer ~interest:Demo.news_person (fun ~from:_ _ ->
      incr delivered);
  (* First export on a fresh peer: the sender reconstructs this ref as
     {host=receiver; id=0; class=newsw.Person} without any side channel. *)
  ignore
    (Peer.export peer
       (Demo.make_news_person (Peer.registry peer) ~name:"greeter" ~age:99));
  let rejects = expected_rejects ~objects ~distinct ~nonconf in
  let rejected () =
    List.length
      (List.filter
         (function Peer.Rejected _ -> true | _ -> false)
         (Peer.events peer))
  in
  (* Once every send has reached a terminal verdict, tell the sender —
     it must keep serving assembly fetches until then, and only then may
     it hang up. Its disconnect is our signal to stop driving. *)
  let announced = ref false in
  let done_ () =
    if (not !announced) && !delivered + rejected () >= objects then begin
      announced := true;
      Peer.send_gossip peer ~dst:sender_addr ~kind:"protocol-done"
        ~body:(string_of_int !delivered)
    end;
    !announced && !hung_up
  in
  ignore
    (Transport.drive_until tr
       ~deadline_ms:(Transport.now_ms tr +. 60_000.)
       done_);
  Format.printf
    "receiver: delivered=%d/%d rejected=%d/%d rx-bytes=%d integrity-drops=%d@."
    !delivered (objects - rejects) (rejected ()) rejects
    (Transport.total_received_bytes tr)
    (Transport.integrity_drops tr);
  Transport.close tr;
  if !delivered = objects - rejects && rejected () = rejects then 0 else 1

(* The sender role: publish the families, stream the objects, then
   acquire the receiver's exported greeter and invoke it — the reply
   doubles as an end-to-end barrier (stream delivery is in-order, so a
   served invocation proves every earlier frame was processed). *)
let protocol_sender tr ~mode ~objects ~distinct ~nonconf ~handles
    ?batch_bytes ~tdesc_binary () =
  let started = Unix.gettimeofday () in
  let sender =
    Peer.create ~mode ~handles ?batch_bytes ~tdesc_binary ~transport:tr
      sender_addr
  in
  let receiver_done = ref false in
  Peer.set_gossip_handler sender (fun ~src:_ ~kind ~body:_ ->
      if kind = "protocol-done" then receiver_done := true);
  Peer.install_assembly sender (Demo.news_assembly ());
  let flavors =
    Array.init distinct (fun i ->
        if i < nonconf then Workload.Trap_missing else Workload.Conformant)
  in
  Array.iteri
    (fun i flavor ->
      Peer.publish_assembly sender (Workload.family ~index:i ~flavor))
    flavors;
  for n = 0 to objects - 1 do
    let index = n mod distinct in
    let v =
      Workload.make_person (Peer.registry sender) ~index
        ~flavor:flavors.(index)
        ~name:(Printf.sprintf "p%d" n) ~age:n
    in
    Peer.send_value sender ~dst:receiver_addr v;
    (* Interleave polling so subprotocol requests (tdesc/assembly
       fetches) are served while the workload streams. *)
    ignore (Transport.poll tr ~timeout_ms:0.)
  done;
  let rref =
    { Peer.rr_host = receiver_addr; rr_id = 0; rr_class = Demo.news_person }
  in
  let greeting =
    match Peer.acquire sender rref ~interest:Demo.news_person with
    | Error e -> Error ("acquire: " ^ e)
    | Ok proxy -> (
        match Proxy.invoke (Peer.registry sender) proxy "greet" [] with
        | Value.Vstring s -> Ok s
        | v -> Error ("greet returned " ^ Value.to_string v)
        | exception Eval.Runtime_error m -> Error ("greet: " ^ m))
  in
  (* Keep serving fetches until the receiver confirms every object hit a
     terminal verdict; only then is it safe to hang up. *)
  let all_done =
    Transport.drive_until tr
      ~deadline_ms:(Transport.now_ms tr +. 30_000.)
      (fun () -> !receiver_done)
  in
  let wall_ms = 1000. *. (Unix.gettimeofday () -. started) in
  let stats = Transport.stats tr in
  Format.printf "sender: objects=%d wall=%.1f ms tx-bytes=%d reconnects=%d@."
    objects wall_ms (Stats.total_bytes stats)
    (Transport.retransmissions tr);
  Format.printf "%a@." Stats.pp stats;
  if handles then
    Format.printf "handles: hits=%d misses=%d renegotiations=%d@."
      (Peer.handle_hits sender) (Peer.handle_misses sender)
      (Peer.renegotiations sender);
  if batch_bytes <> None then
    Format.printf "batching: frames=%d envelopes=%d bytes-saved=%d@."
      (Peer.batch_messages sender)
      (Peer.batch_envelopes sender)
      (Peer.batch_bytes_saved sender);
  (match greeting with
  | Ok s -> Format.printf "remote greet() = %S@." s
  | Error e -> Format.printf "remote greet FAILED: %s@." e);
  if not all_done then
    Format.printf "receiver never confirmed completion@.";
  (* Hanging up is the receiver's signal to stop driving. *)
  Transport.close tr;
  match greeting with Ok _ when all_done -> 0 | _ -> 1

let run_stream_protocol kind ~mode ~objects ~distinct ~nonconf ~handles
    ?batch_bytes ~tdesc_binary ~listen ~connect () =
  let sender_side tr =
    protocol_sender tr ~mode ~objects ~distinct ~nonconf ~handles
      ?batch_bytes ~tdesc_binary ()
  and receiver_side tr =
    protocol_receiver tr ~mode ~objects ~distinct ~nonconf ~handles
      ?batch_bytes ~tdesc_binary ()
  in
  match (listen, connect) with
  | Some _, Some _ -> `Error (false, "--listen and --connect are exclusive")
  | Some spec, None ->
      let tr = stream_fabric kind ~metrics:(Metrics.create ()) () in
      Transport.set_bind tr receiver_addr spec;
      `Ok (receiver_side tr)
  | None, Some spec ->
      let tr = stream_fabric kind ~metrics:(Metrics.create ()) () in
      Transport.register_remote tr receiver_addr spec;
      `Ok (sender_side tr)
  | None, None ->
      (* Forked loopback: child = receiver, parent = sender. Unix
         sockets rendezvous on a fresh temp directory; TCP pre-opens the
         listener before forking so there is no port race. *)
      flush stdout;
      flush stderr;
      let fork_with ~child ~parent =
        match Unix.fork () with
        | 0 ->
            let status = try child () with _ -> 2 in
            Stdlib.exit status
        | pid ->
            let sender_status = try parent () with _ -> 2 in
            let _, child_st = Unix.waitpid [] pid in
            let child_status =
              match child_st with Unix.WEXITED n -> n | _ -> 2
            in
            `Ok (max sender_status child_status)
      in
      (match kind with
      | Transport.Unix_socket ->
          let dir =
            Filename.concat
              (Filename.get_temp_dir_name ())
              (Printf.sprintf "pti-proto-%d" (Unix.getpid ()))
          in
          (try Unix.mkdir dir 0o700
           with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          let spec = Filename.concat dir (receiver_addr ^ ".sock") in
          fork_with
            ~child:(fun () ->
              let tr = stream_fabric kind ~dir ~metrics:(Metrics.create ()) () in
              Transport.set_bind tr receiver_addr spec;
              receiver_side tr)
            ~parent:(fun () ->
              let tr = stream_fabric kind ~dir ~metrics:(Metrics.create ()) () in
              Transport.register_remote tr receiver_addr spec;
              let s = sender_side tr in
              (try Unix.rmdir dir with Unix.Unix_error _ -> ());
              s)
      | Transport.Tcp ->
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
          Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
          Unix.listen fd 16;
          let spec =
            match Unix.getsockname fd with
            | Unix.ADDR_INET (ip, port) ->
                Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port
            | _ -> assert false
          in
          fork_with
            ~child:(fun () ->
              let tr = stream_fabric kind ~metrics:(Metrics.create ()) () in
              Transport.set_bind_fd tr receiver_addr fd;
              receiver_side tr)
            ~parent:(fun () ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              let tr = stream_fabric kind ~metrics:(Metrics.create ()) () in
              Transport.register_remote tr receiver_addr spec;
              sender_side tr)
      | Transport.Sim -> assert false)

let transport_conv =
  let parse s =
    match Transport.kind_of_string s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "unknown transport %S (sim|unix|tcp)" s))
  in
  let print ppf k = Format.pp_print_string ppf (Transport.kind_name k) in
  Arg.conv (parse, print)

let transport_arg =
  Arg.(value
       & opt transport_conv Transport.Sim
       & info [ "transport" ] ~docv:"BACKEND"
           ~doc:"Network backend: $(b,sim) (in-process deterministic \
                 simulator), $(b,unix) (unix-domain stream sockets) or \
                 $(b,tcp). The stream backends run the same protocol \
                 cross-process: by default the command forks a receiver \
                 child; use $(b,--listen)/$(b,--connect) to run the two \
                 roles yourself.")

let listen_arg =
  Arg.(value & opt (some string) None
       & info [ "listen" ] ~docv:"SPEC"
           ~doc:"Run only the receiver role, listening at SPEC (a socket \
                 path for $(b,--transport unix), $(i,host:port) for \
                 $(b,tcp)).")

let connect_arg =
  Arg.(value & opt (some string) None
       & info [ "connect" ] ~docv:"SPEC"
           ~doc:"Run only the sender role, dialing a receiver started \
                 with $(b,--listen) at SPEC.")

let workload_args =
  let objects =
    Arg.(value & opt int 60
         & info [ "objects"; "n" ] ~docv:"N" ~doc:"Objects to transfer.")
  in
  let distinct =
    Arg.(value & opt int 10
         & info [ "distinct"; "k" ] ~docv:"K" ~doc:"Distinct event types.")
  in
  let nonconf =
    Arg.(value & opt int 0
         & info [ "nonconf" ] ~docv:"M"
             ~doc:"How many of the K types are non-conformant.")
  in
  let eager =
    Arg.(value & flag
         & info [ "eager" ] ~doc:"Use the eager baseline instead of the \
                                  optimistic protocol.")
  in
  (objects, distinct, nonconf, eager)

let validate_workload objects distinct nonconf =
  objects > 0 && distinct > 0 && nonconf >= 0 && nonconf <= distinct

let protocol_cmd =
  let objects, distinct, nonconf, eager = workload_args in
  let show_metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Also print the metrics-registry snapshot (caches, \
                   latency histograms, checker counters).")
  in
  let handles =
    Arg.(value & flag
         & info [ "handles" ]
             ~doc:"Negotiate per-link type handles: repeat type entries \
                   ship as small integers after first use.")
  in
  let batch_bytes =
    Arg.(value & opt (some int) None
         & info [ "batch-bytes" ] ~docv:"B"
             ~doc:"Coalesce same-instant sends to one destination into \
                   framed batches of at most B bytes.")
  in
  let tdesc_binary =
    Arg.(value & flag
         & info [ "tdesc-binary" ]
             ~doc:"Request type descriptions in the compact binary codec \
                   (XML stays the fallback).")
  in
  let run objects distinct nonconf eager show_metrics handles batch_bytes
      tdesc_binary transport listen connect =
    if not (validate_workload objects distinct nonconf) then
      `Error (false, "need objects > 0 and 0 <= nonconf <= distinct > 0")
    else begin
      let mode = if eager then Peer.Eager else Peer.Optimistic in
      match transport with
      | Transport.Unix_socket | Transport.Tcp ->
          run_stream_protocol transport ~mode ~objects ~distinct ~nonconf
            ~handles ?batch_bytes ~tdesc_binary ~listen ~connect ()
      | Transport.Sim when listen <> None || connect <> None ->
          `Error (false, "--listen/--connect need --transport unix or tcp")
      | Transport.Sim ->
          let metrics = Metrics.create () in
          let transport, sender, delivered, rejected =
            run_workload ~mode ~objects ~distinct ~nonconf ~metrics ~handles
              ?batch_bytes ~tdesc_binary ()
          in
          Format.printf
            "mode=%s objects=%d distinct=%d nonconf=%d@.delivered=%d \
             rejected=%d completion=%.1f ms@.%a@."
            (if eager then "eager" else "optimistic")
            objects distinct nonconf delivered rejected
            (Transport.now_ms transport)
            Stats.pp (Transport.stats transport);
          if handles then
            Format.printf "handles: hits=%d misses=%d renegotiations=%d@."
              (Peer.handle_hits sender)
              (Peer.handle_misses sender)
              (Peer.renegotiations sender);
          if batch_bytes <> None then
            Format.printf "batching: frames=%d envelopes=%d bytes-saved=%d@."
              (Peer.batch_messages sender)
              (Peer.batch_envelopes sender)
              (Peer.batch_bytes_saved sender);
          if show_metrics then
            Format.printf "@.%a@." Metrics.pp (Metrics.snapshot metrics);
          `Ok 0
    end
  in
  Cmd.v
    (Cmd.info "protocol"
       ~doc:"Transfer a synthetic workload and report wire traffic (E5). \
             With $(b,--transport unix) or $(b,tcp) the same workload \
             runs cross-process over real sockets, finishing with a \
             remote invocation as an end-to-end barrier.")
    Term.(
      ret
        (const run $ objects $ distinct $ nonconf $ eager $ show_metrics
        $ handles $ batch_bytes $ tdesc_binary $ transport_arg $ listen_arg
        $ connect_arg))

(* ------------------------------ stats ------------------------------ *)

let stats_cmd =
  let objects, distinct, nonconf, eager = workload_args in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the snapshot as one JSON object.")
  in
  let tdesc_cache =
    Arg.(value & opt (some int) None
         & info [ "tdesc-cache" ] ~docv:"N"
             ~doc:"Capacity of each peer's type-description cache.")
  in
  let checker_cache =
    Arg.(value & opt (some int) None
         & info [ "checker-cache" ] ~docv:"N"
             ~doc:"Capacity of each peer's conformance-verdict cache.")
  in
  let scale =
    Arg.(value & opt (some int) None
         & info [ "scale" ] ~docv:"N"
             ~doc:"Instead of the two-peer workload, drive the scale \
                   simulator with N sessions and snapshot its registry — \
                   the $(b,scale.*) namespace (session/send/delivery \
                   counters, the scale.latency_ms histogram, cache-rate \
                   gauges) alongside the usual net.* and peer.* metrics.")
  in
  let run objects distinct nonconf eager json tdesc_cache checker_cache scale =
    match scale with
    | Some sessions when sessions > 0 ->
        let metrics = Metrics.create () in
        let cfg = { Scale_driver.default_config with sessions } in
        ignore (Scale_driver.run ~metrics cfg);
        let snap = Metrics.snapshot metrics in
        if json then print_endline (Metrics.to_json snap)
        else Format.printf "%a@." Metrics.pp snap;
        `Ok 0
    | Some _ -> `Error (false, "--scale needs a positive session count")
    | None ->
        if not (validate_workload objects distinct nonconf) then
          `Error (false, "need objects > 0 and 0 <= nonconf <= distinct > 0")
        else begin
          let mode = if eager then Peer.Eager else Peer.Optimistic in
          let metrics = Metrics.create () in
          let _transport, _sender, _delivered, _rejected =
            run_workload ~mode ~objects ~distinct ~nonconf ~metrics
              ?tdesc_cache_capacity:tdesc_cache
              ?checker_cache_capacity:checker_cache ()
          in
          let snap = Metrics.snapshot metrics in
          if json then print_endline (Metrics.to_json snap)
          else Format.printf "%a@." Metrics.pp snap;
          `Ok 0
        end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run the protocol workload (or, with $(b,--scale), the \
             population-scale simulator) against one shared metrics \
             registry and print the full snapshot: per-peer cache \
             hit/miss/eviction counters, checker verdict-cache reuse, \
             network latency histograms, traffic counters and the scale.* \
             namespace.")
    Term.(
      ret
        (const run $ objects $ distinct $ nonconf $ eager $ json $ tdesc_cache
        $ checker_cache $ scale))

(* ------------------------------ scale ------------------------------ *)

(* One scale run with wall-clock timing; JSON rows accumulate so --sweep
   emits the whole E14 curve in a single file. *)
let scale_run_one cfg =
  let started = Unix.gettimeofday () in
  let report = Scale_driver.run cfg in
  let wall_ms = 1000. *. (Unix.gettimeofday () -. started) in
  (report, wall_ms)

let scale_cmd =
  let sessions =
    Arg.(value & opt int 10_000
         & info [ "sessions" ] ~docv:"N" ~doc:"Concurrent-session population.")
  in
  let families =
    Arg.(value & opt int 16
         & info [ "families" ] ~docv:"K"
             ~doc:"Distinct type families in the zipf popularity curve.")
  in
  let trap_families =
    Arg.(value & opt int 2
         & info [ "trap-families" ] ~docv:"M"
             ~doc:"Least-popular ranks that are non-conformant traps \
                   (rejected before any code download).")
  in
  let sends =
    Arg.(value & opt int 2
         & info [ "sends" ] ~docv:"S"
             ~doc:"Envelopes per session over its lifetime.")
  in
  let zipf =
    Arg.(value & opt float 1.1
         & info [ "zipf" ] ~docv:"EXP"
             ~doc:"Zipf popularity exponent (0 = uniform).")
  in
  let churn =
    Arg.(value & opt float 0.5
         & info [ "churn" ] ~docv:"C"
             ~doc:"Session turnover: 0 = immortal sessions, larger = \
                   shorter exponential lifetimes.")
  in
  let flash_at =
    Arg.(value & opt (some float) None
         & info [ "flash-at" ] ~docv:"MS"
             ~doc:"Simulated instant at which a brand-new hot type \
                   thunders over every live session (exercises in-flight \
                   fetch dedup at scale).")
  in
  let upgrade_at =
    Arg.(value & opt (some float) None
         & info [ "upgrade-at" ] ~docv:"MS"
             ~doc:"Simulated instant at which the hottest family (zipf \
                   rank 0) is CAS-republished at schema v2 under \
                   sustained traffic (E15): in-flight sends keep \
                   decoding at v1 by pinned revision, later sends \
                   travel at v2, and the run must still end with zero \
                   undelivered.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Workload seed; equal seeds give bit-identical traces.")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"R"
             ~doc:"Receiving endpoints sharing the one flyweight block. \
                   The block's caches are sharded by destination hash \
                   into the same count, so each endpoint's descriptions \
                   and verdicts live in their own slot; 1 (default) is \
                   bit-identical to the historical single-cache block.")
  in
  let horizon =
    Arg.(value & opt float 60_000.
         & info [ "horizon-ms" ] ~docv:"MS" ~doc:"Simulated run length.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the report(s) as JSON to FILE ($(b,-) for stdout).")
  in
  let sweep =
    Arg.(value & opt (some string) None
         & info [ "sweep" ] ~docv:"N1,N2,..."
             ~doc:"Run once per population size and report the whole \
                   curve (E14); overrides $(b,--sessions).")
  in
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"CI mode: run twice and fail (exit 1) unless deliveries \
                   are nonzero, nothing is left undelivered, same-seed \
                   trace hashes agree, and a flash crowd collapsed to \
                   O(shards) fetches.")
  in
  let min_reuse =
    Arg.(value & opt (some float) None
         & info [ "min-reuse" ] ~docv:"R"
             ~doc:"Fail (exit 1) unless the run's aggregate verdict \
                   reuse rate is at least R — the hub fan-out guard \
                   against E5e-style reuse collapse.")
  in
  let expect_trace =
    Arg.(value & opt (some string) None
         & info [ "expect-trace" ] ~docv:"HEX"
             ~doc:"Fail (exit 1) unless the run's trace hash equals HEX \
                   (lowercase hex, as printed) — pins shards=1 parity \
                   across refactors.")
  in
  let run sessions families trap_families sends zipf churn flash_at
      upgrade_at seed shards horizon json_out sweep smoke min_reuse
      expect_trace =
    let cfg =
      {
        Scale_driver.sessions;
        families;
        trap_families;
        sends_per_session = sends;
        zipf_s = zipf;
        churn;
        flash_at_ms = flash_at;
        upgrade_at_ms = upgrade_at;
        seed = Int64.of_int seed;
        shards;
        horizon_ms = horizon;
      }
    in
    let sizes =
      match sweep with
      | None -> Ok [ sessions ]
      | Some s -> (
          try
            Ok
              (String.split_on_char ',' s
              |> List.filter (fun x -> String.trim x <> "")
              |> List.map (fun x -> int_of_string (String.trim x)))
          with Failure _ -> Error (Printf.sprintf "bad --sweep list %S" s))
    in
    match sizes with
    | Error e -> `Error (false, e)
    | Ok [] -> `Error (false, "--sweep needs at least one size")
    | Ok sizes -> (
        try
          (* With --json - the JSON owns stdout; human reports move to
             stderr so the output stays machine-parseable in a pipe. *)
          let human =
            if json_out = Some "-" then Format.err_formatter
            else Format.std_formatter
          in
          let rows =
            List.map
              (fun n ->
                let cfg = { cfg with Scale_driver.sessions = n } in
                let report, wall_ms = scale_run_one cfg in
                Format.fprintf human "%a@.wall %.0f ms@.@."
                  Scale_driver.pp_report report wall_ms;
                let ok =
                  if not smoke then true
                  else begin
                    let r = report in
                    let rerun, _ = scale_run_one cfg in
                    let dedup_ok =
                      match cfg.Scale_driver.flash_at_ms with
                      | None -> true
                      | Some _ ->
                          r.Scale_driver.r_flash_sends > 0
                          && r.Scale_driver.r_flash_tdesc_fetches
                             <= 4 * cfg.Scale_driver.shards
                          && r.Scale_driver.r_flash_asm_fetches
                             <= 2 * cfg.Scale_driver.shards
                    in
                    let upgrade_ok =
                      match cfg.Scale_driver.upgrade_at_ms with
                      | None -> true
                      | Some _ ->
                          r.Scale_driver.r_upgraded_version >= 2
                          && r.Scale_driver.r_upgrade_sends > 0
                    in
                    let checks =
                      [
                        (r.Scale_driver.r_deliveries > 0, "no deliveries");
                        (r.Scale_driver.r_undelivered = 0,
                         "conformant sends left undelivered");
                        (Int64.equal r.Scale_driver.r_trace_hash
                           rerun.Scale_driver.r_trace_hash,
                         "same-seed trace hashes differ");
                        (dedup_ok, "flash-crowd fetches not O(shards)");
                        (upgrade_ok,
                         "upgrade did not land (chain head < v2 or no \
                          post-upgrade traffic)");
                      ]
                    in
                    List.fold_left
                      (fun acc (ok, msg) ->
                        if not ok then
                          Format.fprintf human "SMOKE FAIL (n=%d): %s@." n
                            msg;
                        acc && ok)
                      true checks
                  end
                in
                let gates = ref true in
                (match min_reuse with
                | None -> ()
                | Some threshold ->
                    if
                      report.Scale_driver.r_verdict_reuse_rate < threshold
                    then begin
                      Format.fprintf human
                        "GATE FAIL (n=%d): verdict reuse %.4f < %g@." n
                        report.Scale_driver.r_verdict_reuse_rate threshold;
                      gates := false
                    end);
                (match expect_trace with
                | None -> ()
                | Some hex ->
                    let got =
                      Printf.sprintf "%Lx" report.Scale_driver.r_trace_hash
                    in
                    if not (String.equal (String.lowercase_ascii hex) got)
                    then begin
                      Format.fprintf human
                        "GATE FAIL (n=%d): trace %s, expected %s@." n got
                        hex;
                      gates := false
                    end);
                (Scale_driver.report_to_json ~wall_ms report, ok && !gates))
              sizes
          in
          let all_ok = List.for_all snd rows in
          (match json_out with
          | None -> ()
          | Some dst ->
              let body =
                Printf.sprintf
                  "{\"experiment\":\"E14-scale\",\"runs\":[%s]}\n"
                  (String.concat "," (List.map fst rows))
              in
              if dst = "-" then print_string body
              else begin
                let oc = open_out dst in
                output_string oc body;
                close_out oc;
                Format.printf "wrote %s@." dst
              end);
          if smoke then
            Format.fprintf human "scale smoke: %s@."
              (if all_ok then "OK" else "FAILED");
          `Ok (if all_ok then 0 else 1)
        with Invalid_argument e -> `Error (false, e))
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:"Drive the deterministic population-scale workload simulator: \
             zipf type popularity, session churn and optional flash \
             crowds over lightweight sessions that share one flyweight \
             peer block. Reports sustained deliveries/sec, latency \
             percentiles, cache hit/reuse rates, flash-crowd dedup \
             fan-in and the run's trace hash (equal seeds, equal \
             hashes).")
    Term.(
      ret
        (const run $ sessions $ families $ trap_families $ sends $ zipf
        $ churn $ flash_at $ upgrade_at $ seed $ shards $ horizon $ json_out
        $ sweep $ smoke $ min_reuse $ expect_trace))

(* ----------------------------- compile ----------------------------- *)

let compile_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Definition-language source (.idl/.vb).")
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"OUT"
             ~doc:"Output path for the assembly XML (default: stdout).")
  in
  let run file output =
    match load_idl file with
    | Error msg -> `Error (false, msg)
    | Ok asm -> (
        let xml = Pti_serial.Assembly_xml.to_string asm in
        match output with
        | None ->
            print_endline xml;
            `Ok 0
        | Some path ->
            let oc = open_out_bin path in
            output_string oc xml;
            close_out oc;
            Printf.printf "wrote %s (%d classes, %d bytes)\n" path
              (List.length asm.Assembly.asm_classes)
              (String.length xml);
            `Ok 0)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile a definition-language source into assembly XML (the \
             code-download wire format).")
    Term.(ret (const run $ file $ output))

(* ------------------------------- run -------------------------------- *)

let run_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"ASSEMBLY"
             ~doc:"Assembly XML file (from 'pti compile') or a source file.")
  in
  let cls =
    Arg.(required & opt (some string) None
         & info [ "class"; "c" ] ~docv:"NAME" ~doc:"Class to instantiate.")
  in
  let meth =
    Arg.(required & opt (some string) None
         & info [ "method"; "m" ] ~docv:"NAME" ~doc:"Method to invoke.")
  in
  let ctor_args =
    Arg.(value & opt_all string []
         & info [ "new" ] ~docv:"ARG"
             ~doc:"Constructor argument (repeatable; int/bool/float parsed, \
                   else string).")
  in
  let meth_args =
    Arg.(value & opt_all string []
         & info [ "arg" ] ~docv:"ARG" ~doc:"Method argument (repeatable).")
  in
  let parse_value s =
    match int_of_string_opt s with
    | Some i -> Value.Vint i
    | None -> (
        match bool_of_string_opt s with
        | Some b -> Value.Vbool b
        | None -> (
            match float_of_string_opt s with
            | Some f -> Value.Vfloat f
            | None -> Value.Vstring s))
  in
  let load path =
    if Filename.check_suffix path ".xml" then
      match read_file path with
      | Error msg -> Error msg
      | Ok src -> (
          match Pti_serial.Assembly_xml.of_string src with
          | Ok asm -> Ok asm
          | Error msg -> Error (path ^ ": " ^ msg))
    else load_idl path
  in
  let run file cls meth ctor_args meth_args =
    match load file with
    | Error msg -> `Error (false, msg)
    | Ok asm -> (
        let reg = Registry.create () in
        match Assembly.load reg asm with
        | exception Registry.Duplicate name ->
            `Error (false, "duplicate type " ^ name)
        | () -> (
            match
              let obj =
                Eval.construct reg cls (List.map parse_value ctor_args)
              in
              Eval.call reg obj meth (List.map parse_value meth_args)
            with
            | result ->
                print_endline (Value.to_string result);
                `Ok 0
            | exception Eval.Runtime_error msg -> `Error (false, msg)))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Instantiate a class from an assembly and invoke one method.")
    Term.(ret (const run $ file $ cls $ meth $ ctor_args $ meth_args))

(* ------------------------------ cluster ---------------------------- *)

let cluster_cmd =
  let peers =
    Arg.(value & opt int 4
         & info [ "peers" ] ~docv:"N" ~doc:"Cluster size (at least 3).")
  in
  let factor =
    Arg.(value & opt int 2
         & info [ "factor" ] ~docv:"K"
             ~doc:"Replication factor: total copies of each published \
                   assembly, publisher included.")
  in
  let objects =
    Arg.(value & opt int 20
         & info [ "objects"; "n" ] ~docv:"N" ~doc:"Objects to transfer.")
  in
  let distinct =
    Arg.(value & opt int 4
         & info [ "distinct"; "k" ] ~docv:"K" ~doc:"Distinct event types.")
  in
  let rounds =
    Arg.(value & opt int 3
         & info [ "rounds" ] ~docv:"R"
             ~doc:"Anti-entropy gossip rounds before the transfer phase.")
  in
  let crash_origin =
    Arg.(value & flag
         & info [ "crash-origin" ]
             ~doc:"Partition the publishing peer from everyone after the \
                   gossip phase: deliveries must go through mirror \
                   failover.")
  in
  let eager =
    Arg.(value & flag
         & info [ "eager" ] ~doc:"Use the eager baseline instead of the \
                                  optimistic protocol.")
  in
  let show_metrics =
    Arg.(value & flag
         & info [ "metrics" ] ~doc:"Also print the metrics-registry \
                                    snapshot (cluster.* included).")
  in
  let upgrade =
    Arg.(value & flag
         & info [ "upgrade" ]
             ~doc:"Midway through the transfer phase, CAS-republish the \
                   first family at schema v2 on the origin's version \
                   chain. Anti-entropy gossip must converge every node \
                   on the two-entry chain, mirrors keep serving v1 to \
                   old receivers, and every object must still be \
                   delivered.")
  in
  let run peers factor objects distinct rounds crash_origin eager
      show_metrics upgrade transport =
    if peers < 3 then `Error (false, "need --peers >= 3 (origin, relay, receiver)")
    else if factor < 1 || factor > peers then
      `Error (false, "need 1 <= --factor <= --peers")
    else if not (validate_workload objects distinct 0) then
      `Error (false, "need objects > 0 and distinct > 0")
    else if upgrade && crash_origin then
      `Error (false, "--upgrade needs the origin alive (drop --crash-origin)")
    else begin
      let module Cluster = Pti_cluster.Cluster in
      let module Node = Pti_cluster.Node in
      let mode = if eager then Peer.Eager else Peer.Optimistic in
      let metrics = Metrics.create () in
      (* sim: the deterministic simulator. unix/tcp: every node on one
         in-process stream fabric — each peer gets a real listening
         socket and traffic crosses the kernel. *)
      let tr =
        match transport with
        | Transport.Sim -> Transport.of_net (Net.create ~seed:17L ~metrics ())
        | k -> stream_fabric k ~metrics ()
      in
      let addrs = List.init peers (fun i -> Printf.sprintf "p%d" (i + 1)) in
      let c =
        Cluster.create ~mode ~metrics ~factor ~request_timeout_ms:500.
          ~probe_timeout_ms:250. ~transport:tr addrs
      in
      let origin = List.hd addrs in
      let origin_node = Cluster.node c origin in
      let families =
        Array.init distinct (fun i ->
            Workload.family ~index:i ~flavor:Workload.Conformant)
      in
      (* Which hosts end up holding replicas? Route the transfer through
         hosts that do not, so --crash-origin exercises failover rather
         than the local fast path. *)
      let holders =
        Array.to_list families
        |> List.concat_map (fun asm ->
               Node.placement origin_node
                 ~assembly:asm.Assembly.asm_name (factor - 1))
        |> List.sort_uniq compare
      in
      let spare = List.filter (fun a -> a <> origin && not (List.mem a holders)) addrs in
      let relay, receiver =
        match (spare, List.rev addrs) with
        | a :: b :: _, _ -> (a, b)
        | [ a ], last :: _ when last <> a -> (a, last)
        | _, last :: prev :: _ -> (prev, last)
        | _ -> assert false
      in
      Array.iter (fun asm -> Node.publish origin_node asm) families;
      (* Prime the relay: one object per family from the origin loads the
         code there and records the origin's advertised paths. *)
      let relay_peer = Cluster.peer c relay in
      Peer.install_assembly relay_peer (Workload.interest_assembly ());
      Peer.register_interest relay_peer ~interest:Workload.interest_person
        (fun ~from:_ _ -> ());
      Array.iteri
        (fun i _ ->
          let v =
            Workload.make_person
              (Peer.registry (Cluster.peer c origin))
              ~index:i ~flavor:Workload.Conformant
              ~name:(Printf.sprintf "seed%d" i) ~age:i
          in
          Peer.send_value (Cluster.peer c origin) ~dst:relay v)
        families;
      Cluster.run c;
      Cluster.run_rounds c rounds;
      if crash_origin then Cluster.crash c origin;
      let receiver_peer = Cluster.peer c receiver in
      Peer.install_assembly receiver_peer (Workload.interest_assembly ());
      let delivered = ref 0 in
      Peer.register_interest receiver_peer ~interest:Workload.interest_person
        (fun ~from:_ _ -> incr delivered);
      (* --upgrade: flip the first family to v2 on the origin's chain
         halfway through, then let gossip spread the new chain entry
         while the remaining (v1-built) objects keep flowing. *)
      let upgraded = ref None in
      for n = 0 to objects - 1 do
        if upgrade && n = objects / 2 then begin
          (match Node.publish_cas origin_node families.(0) with
          | Error _ -> ()
          | Ok ve1 -> (
              let v2 =
                Workload.family_v ~version:2 ~index:0
                  ~flavor:Workload.Conformant
              in
              match
                Node.publish_cas ~expect:ve1.Repository.ve_digest origin_node
                  v2
              with
              | Ok ve2 -> upgraded := Some ve2
              | Error _ -> ()));
          Transport.run tr;
          Cluster.run_rounds c 2
        end;
        let index = n mod distinct in
        let v =
          Workload.make_person (Peer.registry relay_peer) ~index
            ~flavor:Workload.Conformant
            ~name:(Printf.sprintf "p%d" n) ~age:n
        in
        Peer.send_value relay_peer ~dst:receiver v;
        Transport.run tr
      done;
      let upgrade_converged =
        if not upgrade then true
        else begin
          Cluster.run_rounds c rounds;
          match !upgraded with
          | None -> false
          | Some ve ->
              List.for_all
                (fun a ->
                  match
                    Repository.resolve
                      (Peer.repository (Cluster.peer c a))
                      families.(0).Assembly.asm_name
                  with
                  | Some head ->
                      head.Repository.ve_version = ve.Repository.ve_version
                  | None -> false)
                addrs
        end
      in
      let rejected =
        List.length
          (List.filter
             (function Peer.Rejected _ -> true | _ -> false)
             (Peer.events receiver_peer))
      in
      Format.printf
        "cluster: peers=%d factor=%d rounds=%d mode=%s crash-origin=%b@."
        peers factor rounds
        (if eager then "eager" else "optimistic")
        crash_origin;
      Format.printf "roles: origin=%s relay=%s receiver=%s holders=[%s]@."
        origin relay receiver (String.concat ", " holders);
      Format.printf
        "delivered=%d/%d rejected=%d completion=%.1f ms@." !delivered objects
        rejected (Transport.now_ms tr);
      Format.printf
        "receiver: fetch attempts=%d retries=%d failovers=%d known \
         mirrors(first family)=%d@."
        (Peer.fetch_attempts receiver_peer)
        (Peer.fetch_retries receiver_peer)
        (Peer.fetch_failovers receiver_peer)
        (List.length
           (Node.known_mirrors (Cluster.node c receiver)
              families.(0).Assembly.asm_name));
      Format.printf "receiver membership: %s@."
        (String.concat ", "
           (List.map
              (fun (a, st) ->
                Printf.sprintf "%s=%s" a (Node.status_name st))
              (Node.members (Cluster.node c receiver))));
      let total f = List.fold_left (fun acc n -> acc + f n) 0 (Cluster.nodes c) in
      Format.printf "gossip: rounds=%d digest-bytes=%d@."
        (total Node.gossip_rounds) (total Node.digest_bytes);
      if upgrade then
        Format.printf "upgrade: chain head %s, converged on all %d nodes: %b@."
          (match !upgraded with
          | Some ve -> Printf.sprintf "v%d" ve.Repository.ve_version
          | None -> "lost (CAS conflict)")
          peers upgrade_converged;
      Format.printf "%a@." Stats.pp (Transport.stats tr);
      if show_metrics then
        Format.printf "@.%a@." Metrics.pp (Metrics.snapshot metrics);
      Transport.close tr;
      `Ok (if !delivered = objects && upgrade_converged then 0 else 1)
    end
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Run a replicated N-peer scenario: gossip spreads type \
             descriptions and mirror paths, assemblies are placed with \
             factor-K replication, and (with $(b,--crash-origin)) \
             deliveries survive the publisher's crash through mirror \
             failover. Exits 1 unless every object is delivered. With \
             $(b,--transport unix) or $(b,tcp) every node listens on a \
             real socket and all traffic crosses the kernel.")
    Term.(
      ret
        (const run $ peers $ factor $ objects $ distinct $ rounds
        $ crash_origin $ eager $ show_metrics $ upgrade $ transport_arg))

(* ------------------------------ publish ---------------------------- *)

let publish_cmd =
  let cas =
    Arg.(value & flag
         & info [ "cas" ]
             ~doc:"Publish through the compare-and-set version chain: \
                   each revision names the digest it expects at the \
                   head, a mismatch is a $(b,Conflict) (lost race), and \
                   every superseded revision stays resolvable by \
                   version pin or content digest. Without this flag the \
                   assembly is published the classic way (no chain).")
  in
  let revisions =
    Arg.(value & opt int 2
         & info [ "revisions" ] ~docv:"N"
             ~doc:"Revisions to chain with $(b,--cas) (v2+ add an email \
                   field to the family's Person).")
  in
  let run cas revisions =
    if revisions < 1 then `Error (false, "--revisions must be at least 1")
    else begin
      let peer = Peer.create ~transport:(Transport.of_net (Net.create ())) "repo" in
      let repo = Peer.repository peer in
      let v1 = Workload.family ~index:0 ~flavor:Workload.Conformant in
      let name = v1.Assembly.asm_name in
      if not cas then begin
        Peer.publish_assembly peer v1;
        (match Repository.find_by_name repo name with
        | Some (path, _) -> Format.printf "published %s at %s@." name path
        | None -> ());
        `Ok 0
      end
      else begin
        let expect = ref None in
        let ok = ref true in
        for v = 1 to revisions do
          let asm =
            Workload.family_v ~version:v ~index:0
              ~flavor:Workload.Conformant
          in
          match Peer.publish_assembly_cas ?expect:!expect peer asm with
          | Ok ve ->
              Format.printf "cas v%d: digest %s at %s@."
                ve.Repository.ve_version ve.Repository.ve_digest
                ve.Repository.ve_path;
              expect := Some ve.Repository.ve_digest
          | Error (Repository.Conflict { expected; head }) ->
              ok := false;
              Format.printf "cas v%d: CONFLICT (expected %s, head %s)@." v
                (Option.value ~default:"<empty>" expected)
                (Option.value ~default:"<empty>" head)
        done;
        (* A deliberately stale writer: expecting the original head must
           lose once the chain has moved past it. *)
        (if revisions > 1 then
           let stale =
             Workload.family_v ~version:(revisions + 1) ~index:0
               ~flavor:Workload.Conformant
           in
           let first =
             match Repository.chain repo name with
             | ve :: _ -> Some ve.Repository.ve_digest
             | [] -> None
           in
           match Peer.publish_assembly_cas ?expect:first peer stale with
           | Ok _ ->
               ok := false;
               Format.printf "stale cas: unexpectedly won@."
           | Error (Repository.Conflict _) ->
               Format.printf "stale cas: conflict, as it must@.");
        Format.printf "chain %s: [%s]@." name
          (String.concat "; "
             (List.map
                (fun ve ->
                  Printf.sprintf "v%d=%s" ve.Repository.ve_version
                    (String.sub ve.Repository.ve_digest 0 8))
                (Repository.chain repo name)));
        List.iter
          (fun ve ->
            match
              Repository.resolve
                ~pin:(Repository.Version ve.Repository.ve_version) repo name
            with
            | Some got
              when String.equal got.Repository.ve_digest
                     ve.Repository.ve_digest ->
                ()
            | _ ->
                ok := false;
                Format.printf "pin v%d: does not resolve@."
                  ve.Repository.ve_version)
          (Repository.chain repo name);
        `Ok (if !ok then 0 else 1)
      end
    end
  in
  Cmd.v
    (Cmd.info "publish"
       ~doc:"Publish the demo workload family into a repository and \
             print where it landed. With $(b,--cas), drive the \
             content-addressed version chain: chain N revisions by \
             compare-and-set, show that a stale expectation loses with \
             a conflict, and that every revision stays resolvable by \
             version pin. Exits 1 if any CAS outcome deviates.")
    Term.(ret (const run $ cas $ revisions))

(* ------------------------------- demo ------------------------------ *)

let demo_cmd =
  let run () =
    let transport = Transport.of_net (Net.create ()) in
    let sender = Peer.create ~transport "sender" in
    let receiver = Peer.create ~transport "receiver" in
    Peer.publish_assembly sender (Demo.social_assembly ());
    Peer.publish_assembly receiver (Demo.news_assembly ());
    Peer.register_interest receiver ~interest:Demo.news_person
      (fun ~from person ->
        Format.printf "receiver got %s from %s@." (Value.type_name person) from;
        match Eval.call (Peer.registry receiver) person "greet" [] with
        | Value.Vstring s -> Format.printf "  greet() = %S@." s
        | _ -> ());
    let alice =
      Demo.make_social_person (Peer.registry sender) ~name:"Alice" ~age:30
    in
    Peer.send_value sender ~dst:"receiver" alice;
    Transport.run transport;
    Format.printf "%a@." Stats.pp (Transport.stats transport);
    `Ok 0
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the §3.1 Person quickstart scenario.")
    Term.(ret (const run $ const ()))

(* ------------------------------- chaos ----------------------------- *)

let chaos_cmd =
  let runs =
    Arg.(value & opt int 20
         & info [ "runs" ] ~docv:"N" ~doc:"Seeded schedules to execute.")
  in
  let seed =
    Arg.(value & opt int64 42L
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Root seed; per-run seeds derive from it. A failing \
                   run reports its own seed for direct reproduction.")
  in
  let profile =
    let parse s =
      match Pti_fault.Fault_plan.profile_of_string s with
      | Some p -> Ok p
      | None ->
          Error (`Msg (Printf.sprintf
                         "unknown profile %S (lossy|flaky|byzantine-wire)" s))
    in
    let print ppf p =
      Format.pp_print_string ppf (Pti_fault.Fault_plan.profile_name p)
    in
    Arg.(value
         & opt (conv (parse, print)) Pti_fault.Fault_plan.Lossy
         & info [ "profile" ] ~docv:"PROFILE"
             ~doc:"Fault profile: $(b,lossy) (burst loss, duplication, \
                   reordering), $(b,flaky) (link flaps and crash windows \
                   on top of loss) or $(b,byzantine-wire) (byte \
                   corruption).")
  in
  let cluster =
    Arg.(value & flag
         & info [ "cluster" ]
             ~doc:"Run each schedule against a replicated 4-node cluster \
                   (gossip, mirrors, membership re-convergence) instead \
                   of two peers.")
  in
  let objects =
    Arg.(value & opt int 8
         & info [ "objects"; "n" ] ~docv:"N" ~doc:"Objects sent per run.")
  in
  let wire =
    Arg.(value & flag
         & info [ "wire" ]
             ~doc:"Enable the wire-efficiency features (negotiated type \
                   handles, envelope batching, binary tdesc codec) and \
                   additionally drop the receiver's handle tables \
                   mid-run: the run must degrade through renegotiation, \
                   never deliver a mis-typed payload.")
  in
  let upgrade =
    Arg.(value & flag
         & info [ "upgrade" ]
             ~doc:"Live schema evolution under faults: halfway through \
                   each run's send window, the first family is \
                   CAS-republished at v2 on the sender's version chain. \
                   Later sends of that family must decode at v2, \
                   in-flight v1 sends at v1 — the upgrade-safety \
                   invariant rejects any cross-decode.")
  in
  let run runs seed profile cluster objects wire upgrade =
    if runs < 1 then `Error (false, "--runs must be at least 1")
    else if objects < 1 then `Error (false, "--objects must be at least 1")
    else begin
      let config =
        {
          Chaos.c_profile = profile;
          c_cluster = cluster;
          c_objects = objects;
          c_frame_integrity = true;
          c_wire = wire;
          c_upgrade = upgrade;
        }
      in
      let summary = Chaos.run_many config ~runs ~seed in
      Format.printf "%a@." Chaos.pp_summary summary;
      (match summary.Chaos.s_failures with
      | [] -> ()
      | first :: _ ->
          Format.printf "reproduce with: pti chaos --runs 1 --seed %Ld \
                         --profile %s --objects %d%s%s%s@."
            first.Chaos.r_seed
            (Pti_fault.Fault_plan.profile_name profile)
            objects
            (if cluster then " --cluster" else "")
            (if wire then " --wire" else "")
            (if upgrade then " --upgrade" else ""));
      `Ok (if summary.Chaos.s_failures = [] then 0 else 1)
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Execute N seeded fault schedules against the protocol and \
             check its invariants (delivery conservation, exactly-once, \
             no mangled values, trap rejection, verdict stability, \
             membership convergence, metrics-vs-trace). Faults are \
             armed as transport middleware on the deterministic sim \
             backend — the same hook record the socket backends accept, \
             but with reproducible seeded schedules. A failing schedule \
             is shrunk to a minimal reproducing plan. Exits 1 on any \
             invariant violation.")
    Term.(
      ret
        (const run $ runs $ seed $ profile $ cluster $ objects $ wire
        $ upgrade))

(* ------------------------------ explore ---------------------------- *)

let explore_cmd =
  let scenario =
    let parse s =
      match Pti_mc.Scenario.kind_of_string s with
      | Some k -> Ok k
      | None ->
          Error (`Msg (Printf.sprintf
                         "unknown scenario %S \
                          (protocol|cluster|wire|evolution)" s))
    in
    let print ppf k =
      Format.pp_print_string ppf (Pti_mc.Scenario.kind_name k)
    in
    Arg.(value
         & opt (conv (parse, print)) Pti_mc.Scenario.Protocol
         & info [ "scenario" ] ~docv:"SCENARIO"
             ~doc:"World to explore: $(b,protocol) (two peers, classic \
                   wire), $(b,cluster) (replicated repositories with \
                   gossip ticks as explorable actions), $(b,wire) \
                   (handle negotiation, batching, binary tdescs, and a \
                   handle-table drop as explorable actions) or \
                   $(b,evolution) (a v2 CAS publication of the one \
                   family in play as an explorable action racing the \
                   sends and type subprotocols; every delivery must \
                   decode at the revision it negotiated).")
  in
  let peers =
    Arg.(value & opt int 3
         & info [ "peers" ] ~docv:"N"
             ~doc:"Cluster size (cluster scenario only).")
  in
  let objects =
    Arg.(value & opt int 2
         & info [ "objects"; "n" ] ~docv:"N" ~doc:"Objects sent.")
  in
  let depth =
    Arg.(value & opt int 8
         & info [ "depth" ] ~docv:"D"
             ~doc:"Choice points per schedule; beyond the bound the \
                   remaining events run FIFO.")
  in
  let budget =
    Arg.(value & opt int 20_000
         & info [ "budget" ] ~docv:"N"
             ~doc:"Maximum terminal states to evaluate.")
  in
  let max_seconds =
    Arg.(value & opt float 300.
         & info [ "max-seconds" ] ~docv:"S"
             ~doc:"Wall-clock bound for the whole exploration.")
  in
  let schedule =
    Arg.(value & opt (some string) None
         & info [ "schedule" ] ~docv:"REPLAY"
             ~doc:"Skip exploration: replay this one schedule (as \
                   printed on failure; $(b,-) is the empty/FIFO \
                   schedule) and check the invariants.")
  in
  let no_dpor =
    Arg.(value & flag
         & info [ "no-dpor" ] ~doc:"Disable sleep-set pruning.")
  in
  let no_hash =
    Arg.(value & flag
         & info [ "no-hash" ] ~doc:"Disable visited-state hash pruning.")
  in
  let fanout_bug =
    Arg.(value & flag
         & info [ "fanout-bug" ]
             ~doc:"Create the receiver without the shared in-flight \
                   fetch guards — the historical fan-out bug — so the \
                   explorer has a known violation to find.")
  in
  let cas_bug =
    Arg.(value & flag
         & info [ "cas-bug" ]
             ~doc:"Evolution scenario: publish v2 by advancing the \
                   chain head directly instead of through the atomic \
                   CAS + registry upgrade — the historical torn publish \
                   — so the explorer has a known upgrade-safety \
                   violation to find.")
  in
  let run scenario peers objects depth budget max_seconds schedule no_dpor
      no_hash fanout_bug cas_bug =
    if peers < 2 then `Error (false, "--peers must be at least 2")
    else if objects < 1 then `Error (false, "--objects must be at least 1")
    else if depth < 1 then `Error (false, "--depth must be at least 1")
    else begin
      let module Mc = Pti_mc.Scenario in
      let spec = Mc.spec ~peers ~objects ~fanout_bug ~cas_bug scenario in
      let mk () = Mc.make spec in
      let repro_flags extra =
        Printf.sprintf
          "pti explore --scenario %s --peers %d --objects %d --depth %d%s%s%s"
          (Mc.kind_name scenario) peers objects depth
          (if fanout_bug then " --fanout-bug" else "")
          (if cas_bug then " --cas-bug" else "")
          extra
      in
      match schedule with
      | Some s -> begin
          match Pti_mc.Schedule.decode s with
          | Error msg -> `Error (false, msg)
          | Ok choices -> begin
              match Pti_mc.Explore.run_schedule mk choices with
              | [] ->
                  Format.printf "schedule %s: all invariants hold@."
                    (Pti_mc.Schedule.encode choices);
                  `Ok 0
              | vs ->
                  Format.printf "schedule %s: %d violation(s)@."
                    (Pti_mc.Schedule.encode choices)
                    (List.length vs);
                  List.iter
                    (fun v ->
                      Format.printf "  %a@."
                        Pti_fault.Invariant.pp_violation v)
                    vs;
                  Format.printf "reproduce with: %s@."
                    (repro_flags
                       (Printf.sprintf " --schedule %s"
                          (Pti_mc.Schedule.encode choices)));
                  `Ok 1
            end
        end
      | None ->
          let config =
            {
              Pti_mc.Explore.depth;
              budget;
              dpor = not no_dpor;
              state_hash = not no_hash;
              max_seconds;
            }
          in
          let result = Pti_mc.Explore.run ~config mk in
          Format.printf "%a@." Pti_mc.Explore.pp_result result;
          (match result.Pti_mc.Explore.violation with
          | None -> `Ok 0
          | Some (sched, _) ->
              let minimal = Pti_mc.Explore.shrink mk sched in
              Format.printf "shrunk to %d step(s): %s@."
                (List.length minimal)
                (Pti_mc.Schedule.encode minimal);
              Format.printf "reproduce with: %s@."
                (repro_flags
                   (Printf.sprintf " --schedule %s"
                      (Pti_mc.Schedule.encode minimal)));
              `Ok 1)
    end
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Systematically explore message/action interleavings of a \
             closed fault-free scenario with a stateless DFS model \
             checker (sleep-set DPOR + visited-state hashing), checking \
             the chaos invariant set at every terminal state. The \
             explorer is pinned to the sim transport backend — only the \
             simulator exposes the deterministic enabled-event set it \
             schedules against. A failing schedule is ddmin-shrunk to a \
             minimal replayable $(b,--schedule) string. Exits 1 on any \
             violation.")
    Term.(ret
            (const run $ scenario $ peers $ objects $ depth $ budget
             $ max_seconds $ schedule $ no_dpor $ no_hash $ fanout_bug
             $ cas_bug))

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "pti" ~version:"1.0.0"
      ~doc:"Pragmatic type interoperability middleware (ICDCS 2003 \
            reproduction)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            describe_cmd; check_cmd; lint_cmd; compile_cmd; run_cmd;
            protocol_cmd; stats_cmd; scale_cmd; cluster_cmd; publish_cmd;
            demo_cmd; chaos_cmd; explore_cmd;
          ]))
