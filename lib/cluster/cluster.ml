module Transport = Pti_transport.Transport
module Peer = Pti_core.Peer
module Message = Pti_core.Message

type t = {
  tr : Message.t Transport.t;
  nodes : (string * Node.t) list;  (* creation order *)
}

let create ?mode ?codec ?metrics ?(factor = 2) ?(seed = 7L)
    ?request_timeout_ms ?fetch_retries ?fetch_backoff_ms ?probe_timeout_ms
    ?handles ?batch_bytes ?tdesc_binary ~transport:tr addrs =
  if addrs = [] then invalid_arg "Cluster.create: no addresses";
  let nodes =
    List.mapi
      (fun i addr ->
        let peer =
          Peer.create ?mode ?codec ?metrics ?request_timeout_ms
            ?fetch_retries ?fetch_backoff_ms ?handles ?batch_bytes
            ?tdesc_binary ~transport:tr addr
        in
        (* Distinct deterministic streams per node: same cluster seed,
           different partner choices. *)
        let node_seed = Int64.add seed (Int64.of_int ((i + 1) * 7919)) in
        ( addr,
          Node.create ~factor ~seed:node_seed ?probe_timeout_ms peer ))
      addrs
  in
  let t = { tr; nodes } in
  (* Common bootstrap: everyone starts knowing the full roster. *)
  List.iter (fun (_, n) -> Node.join n addrs) nodes;
  t

let transport t = t.tr
let addresses t = List.map fst t.nodes
let nodes t = List.map snd t.nodes

let node t addr =
  match List.assoc_opt addr t.nodes with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Cluster.node: unknown address %S" addr)

let peer t addr = Node.peer (node t addr)

let run t = Transport.run t.tr

let run_rounds t n =
  for _ = 1 to n do
    List.iter (fun (_, node) -> Node.tick node) t.nodes;
    Transport.run t.tr
  done

(* A crash is a partition from everyone at once: the host stays
   registered on the transport (in-flight and future traffic to it is
   dropped) and the survivors' failure detectors notice on their own. *)
let crash t addr =
  List.iter
    (fun (other, _) ->
      if other <> addr then Transport.partition t.tr addr other)
    t.nodes

let heal t addr =
  List.iter
    (fun (other, _) -> if other <> addr then Transport.heal t.tr addr other)
    t.nodes
