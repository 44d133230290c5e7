type category =
  | Object_msg
  | Tdesc_request
  | Tdesc_reply
  | Asm_request
  | Asm_reply
  | Invoke_request
  | Invoke_reply
  | Gossip
  | Handle_ctl
  | Control

let all_categories =
  [
    Object_msg; Tdesc_request; Tdesc_reply; Asm_request; Asm_reply;
    Invoke_request; Invoke_reply; Gossip; Handle_ctl; Control;
  ]

let category_name = function
  | Object_msg -> "object"
  | Tdesc_request -> "tdesc-req"
  | Tdesc_reply -> "tdesc-reply"
  | Asm_request -> "asm-req"
  | Asm_reply -> "asm-reply"
  | Invoke_request -> "invoke-req"
  | Invoke_reply -> "invoke-reply"
  | Gossip -> "gossip"
  | Handle_ctl -> "handle-ctl"
  | Control -> "control"

let index = function
  | Object_msg -> 0
  | Tdesc_request -> 1
  | Tdesc_reply -> 2
  | Asm_request -> 3
  | Asm_reply -> 4
  | Invoke_request -> 5
  | Invoke_reply -> 6
  | Gossip -> 7
  | Handle_ctl -> 8
  | Control -> 9

let ncat = List.length all_categories

let of_index i =
  if i < 0 || i >= ncat then invalid_arg "Stats.of_index"
  else List.nth all_categories i

type link_event =
  | Dropped
  | Retransmission
  | Injected_drop
  | Injected_duplicate
  | Corrupted
  | Integrity_drop

let link_events =
  [
    Dropped; Retransmission; Injected_drop; Injected_duplicate; Corrupted;
    Integrity_drop;
  ]

let link_event_name = function
  | Dropped -> "dropped"
  | Retransmission -> "retransmissions"
  | Injected_drop -> "injected_drops"
  | Injected_duplicate -> "injected_duplicates"
  | Corrupted -> "corrupted_frames"
  | Integrity_drop -> "integrity_drops"

let link_index = function
  | Dropped -> 0
  | Retransmission -> 1
  | Injected_drop -> 2
  | Injected_duplicate -> 3
  | Corrupted -> 4
  | Integrity_drop -> 5

module Metrics = Pti_obs.Metrics

(* Every field is an instrument of the registry, looked up once at
   [create]: the record holds no count of its own, so two views of one
   registry see the same numbers. Arrays are indexed by [index] or
   [link_index]. *)
type t = {
  bytes : Metrics.counter array;  (* net.bytes.<category> *)
  messages : Metrics.counter array;  (* net.messages.<category> *)
  total_bytes : Metrics.counter;
  total_messages : Metrics.counter;
  rx_bytes : Metrics.counter array;  (* net.rx.bytes.<category> *)
  rx_messages : Metrics.counter array;
  lost : Metrics.counter array;  (* net.link.lost.<category> *)
  links : Metrics.counter array;  (* net.link.<event> *)
  latencies : Metrics.histogram array;  (* net.latency_ms.<category> *)
}

let create ?metrics () =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  let each xs name make prefix =
    Array.of_list (List.map (fun x -> make m (prefix ^ name x)) xs)
  in
  let per_category make = each all_categories category_name make in
  {
    bytes = per_category Metrics.counter "net.bytes.";
    messages = per_category Metrics.counter "net.messages.";
    total_bytes = Metrics.counter m "net.bytes.total";
    total_messages = Metrics.counter m "net.messages.total";
    rx_bytes = per_category Metrics.counter "net.rx.bytes.";
    rx_messages = per_category Metrics.counter "net.rx.messages.";
    lost = per_category Metrics.counter "net.link.lost.";
    links = each link_events link_event_name Metrics.counter "net.link.";
    latencies = per_category Metrics.histogram "net.latency_ms.";
  }

let record t c ~bytes =
  let i = index c in
  Metrics.add t.bytes.(i) bytes;
  Metrics.incr t.messages.(i);
  Metrics.add t.total_bytes bytes;
  Metrics.incr t.total_messages

let record_rx t c ~bytes =
  let i = index c in
  Metrics.add t.rx_bytes.(i) bytes;
  Metrics.incr t.rx_messages.(i)

let value cs i = Metrics.counter_value cs.(i)
let sum cs = Array.fold_left (fun acc c -> acc + Metrics.counter_value c) 0 cs
let bytes t c = value t.bytes (index c)
let messages t c = value t.messages (index c)
let total_bytes t = Metrics.counter_value t.total_bytes
let total_messages t = Metrics.counter_value t.total_messages
let received_bytes t c = value t.rx_bytes (index c)
let total_received_bytes t = sum t.rx_bytes
let record_link t e = Metrics.incr t.links.(link_index e)
let record_links t e n = Metrics.add t.links.(link_index e) n
let link_count t e = value t.links (link_index e)
let record_lost t c = Metrics.incr t.lost.(index c)
let lost_for t c = value t.lost (index c)
let lost_messages t = sum t.lost

let reset t =
  List.iter (Array.iter Metrics.clear_counter)
    [ t.bytes; t.messages; t.rx_bytes; t.rx_messages; t.lost; t.links ];
  Metrics.clear_counter t.total_bytes;
  Metrics.clear_counter t.total_messages;
  Array.iter Metrics.clear_histogram t.latencies

let record_latency t c ~ms = Metrics.observe t.latencies.(index c) ms

let latency_percentile t c p =
  Metrics.quantile (Metrics.snapshot_histogram t.latencies.(index c)) p

let pp ppf t =
  Format.fprintf ppf "@[<v>%-14s %10s %12s@," "category" "messages" "bytes";
  List.iter
    (fun c ->
      if messages t c > 0 then
        Format.fprintf ppf "%-14s %10d %12d@," (category_name c)
          (messages t c) (bytes t c))
    all_categories;
  Format.fprintf ppf "%-14s %10d %12d@]" "total" (total_messages t)
    (total_bytes t)
