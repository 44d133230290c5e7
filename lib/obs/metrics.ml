(* Domain-safety model (see HACKING, "Sharding and domain safety"):
   counters are [Atomic.t] cells, gauge and histogram writes are guarded
   by a per-instrument mutex, and the registry table itself by a
   registry-wide mutex — so any number of domains may report through one
   [t] concurrently. Snapshots merge per-instrument state under the same
   locks, so a snapshot taken mid-traffic is internally consistent (a
   histogram's bucket counts always sum to its count; sum/min/max belong
   to the same prefix of observations): it never tears. *)

(* One bucket layout shared by every histogram: log-linear, [sub_buckets]
   linear steps per octave from 2^[min_exp] ms to 2^[max_exp] ms (about
   1 us to 17 min), plus an underflow bucket at or below 2^[min_exp] and
   an overflow bucket above 2^[max_exp]. Consecutive bounds differ by at
   most a factor 1 + 1/[sub_buckets], which is the quantile error bound
   stated in the interface. Powers of two times j/8 are exact floats, so
   the bounds print and compare exactly. *)
let sub_buckets = 8
let min_exp = -10
let max_exp = 20

let bounds =
  Array.init
    (1 + ((max_exp - min_exp) * sub_buckets))
    (fun i ->
      if i = 0 then Float.ldexp 1. min_exp
      else
        let octave = (i - 1) / sub_buckets
        and j = ((i - 1) mod sub_buckets) + 1 in
        Float.ldexp
          (1. +. (float_of_int j /. float_of_int sub_buckets))
          (min_exp + octave))

let n_bounds = Array.length bounds
let bucket_bound i = if i = n_bounds then infinity else bounds.(i)

type hist = {
  h_mu : Mutex.t;
  counts : int array;  (* one per bound, plus the overflow bucket *)
  mutable sum : float;
  mutable count : int;
  mutable minv : float;
  mutable maxv : float;
}

type gauge_cell = { g_mu : Mutex.t; mutable g_v : float }

type instrument =
  | Icounter of int Atomic.t
  | Igauge of gauge_cell
  | Igauge_fn of (unit -> float) ref
  | Ihist of hist

type t = { mu : Mutex.t; tbl : (string, instrument) Hashtbl.t }
type counter = int Atomic.t
type gauge = gauge_cell
type histogram = hist

let create () = { mu = Mutex.create (); tbl = Hashtbl.create 64 }
let default = create ()

let kind_name = function
  | Icounter _ -> "counter"
  | Igauge _ -> "gauge"
  | Igauge_fn _ -> "gauge"
  | Ihist _ -> "histogram"

(* Get-or-create under the registry mutex: two domains racing to create
   the same name must agree on one cell. *)
let with_registry t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
      Mutex.unlock t.mu;
      v
  | exception e ->
      Mutex.unlock t.mu;
      raise e

let counter t name =
  with_registry t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Icounter r) -> r
      | Some i ->
          invalid_arg
            (Printf.sprintf "Metrics: %S is a %s, not a counter" name
               (kind_name i))
      | None ->
          let r = Atomic.make 0 in
          Hashtbl.replace t.tbl name (Icounter r);
          r)

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let counter_value c = Atomic.get c

let gauge t name =
  with_registry t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Igauge r) -> r
      | Some i ->
          invalid_arg
            (Printf.sprintf "Metrics: %S is a %s, not a gauge" name
               (kind_name i))
      | None ->
          let r = { g_mu = Mutex.create (); g_v = 0. } in
          Hashtbl.replace t.tbl name (Igauge r);
          r)

let set_gauge g v =
  Mutex.lock g.g_mu;
  g.g_v <- v;
  Mutex.unlock g.g_mu

let gauge_fn t name f =
  with_registry t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Igauge_fn r) -> r := f
      | Some (Icounter _ | Igauge _ | Ihist _ as i) ->
          invalid_arg
            (Printf.sprintf "Metrics: %S is a %s, not a gauge callback" name
               (kind_name i))
      | None -> Hashtbl.replace t.tbl name (Igauge_fn (ref f)))

let histogram t name =
  with_registry t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Ihist h) -> h
      | Some i ->
          invalid_arg
            (Printf.sprintf "Metrics: %S is a %s, not a histogram" name
               (kind_name i))
      | None ->
          let h =
            {
              h_mu = Mutex.create ();
              counts = Array.make (n_bounds + 1) 0;
              sum = 0.;
              count = 0;
              minv = nan;
              maxv = nan;
            }
          in
          Hashtbl.replace t.tbl name (Ihist h);
          h)

let observe h v =
  (* Binary search for the first bucket whose upper bound admits [v];
     the overflow bucket is index [n_bounds]. A plain loop over local
     refs, not a recursive closure: this is the one call made per sample
     on the hot path and must not allocate (lock/unlock allocate
     nothing either). *)
  let lo = ref 0 and hi = ref n_bounds in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if v <= bounds.(mid) then hi := mid else lo := mid + 1
  done;
  let i = !lo in
  Mutex.lock h.h_mu;
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. v;
  h.count <- h.count + 1;
  if h.count = 1 then begin
    h.minv <- v;
    h.maxv <- v
  end
  else begin
    if v < h.minv then h.minv <- v;
    if v > h.maxv then h.maxv <- v
  end;
  Mutex.unlock h.h_mu

type hist_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : (float * int) array;
}

let quantile hs p =
  if p < 0. || p > 1. then invalid_arg "Metrics.quantile";
  if hs.h_count = 0 then None
  else begin
    (* Nearest-rank: the smallest rank r (1-based) with r/count >= p,
       i.e. ceil(p * count), clamped to [1, count]. The holding bucket's
       upper bound is clamped to the observed [min, max], so rank 1 and
       rank count report the extremes exactly and no estimate leaves the
       observed range. *)
    let target =
      let r = int_of_float (Float.ceil (p *. float_of_int hs.h_count)) in
      min hs.h_count (max 1 r)
    in
    let rec scan i cum =
      if i >= Array.length hs.h_buckets then hs.h_max
      else
        let bound, c = hs.h_buckets.(i) in
        let cum = cum + c in
        if cum >= target then Float.min hs.h_max (Float.max hs.h_min bound)
        else scan (i + 1) cum
    in
    Some (if target = 1 then hs.h_min else scan 0 0)
  end

type value = Counter of int | Gauge of float | Histogram of hist_snapshot
type snapshot = (string * value) list

let snapshot_histogram h =
  (* Under the instrument mutex: bucket counts, sum, count and min/max
     all describe the same prefix of observations — a snapshot racing
     [observe] on another domain can never tear. *)
  Mutex.lock h.h_mu;
  let buckets = ref [] in
  for i = n_bounds downto 0 do
    let c = h.counts.(i) in
    if c > 0 then buckets := (bucket_bound i, c) :: !buckets
  done;
  let s =
    {
      h_count = h.count;
      h_sum = h.sum;
      h_min = h.minv;
      h_max = h.maxv;
      h_buckets = Array.of_list !buckets;
    }
  in
  Mutex.unlock h.h_mu;
  s

let snap_instrument = function
  | Icounter r -> Counter (Atomic.get r)
  | Igauge g ->
      Mutex.lock g.g_mu;
      let v = g.g_v in
      Mutex.unlock g.g_mu;
      Gauge v
  | Igauge_fn f -> Gauge (!f ())
  | Ihist h -> Histogram (snapshot_histogram h)

let snapshot t =
  (* Collect the instrument list under the registry mutex, then merge
     each instrument's state under its own lock — gauge callbacks run
     outside the registry lock, so a probe may itself read metrics. *)
  let instruments =
    with_registry t (fun () ->
        Hashtbl.fold (fun name i acc -> (name, i) :: acc) t.tbl [])
  in
  List.map (fun (name, i) -> (name, snap_instrument i)) instruments
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find t name =
  let i = with_registry t (fun () -> Hashtbl.find_opt t.tbl name) in
  Option.map snap_instrument i

let pp ppf (s : snapshot) =
  let fmt_float v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.3f" v
  in
  Format.fprintf ppf "@[<v>%-44s %14s@," "metric" "value";
  List.iter
    (fun (name, v) ->
      match v with
      | Counter c -> Format.fprintf ppf "%-44s %14d@," name c
      | Gauge g -> Format.fprintf ppf "%-44s %14s@," name (fmt_float g)
      | Histogram h ->
          let q p =
            match quantile h p with Some v -> fmt_float v | None -> "-"
          in
          Format.fprintf ppf
            "%-44s %14s  (mean %s, p50<=%s, p95<=%s, max %s)@," name
            (Printf.sprintf "%dx" h.h_count)
            (if h.h_count = 0 then "-"
             else fmt_float (h.h_sum /. float_of_int h.h_count))
            (q 0.5) (q 0.95)
            (if h.h_count = 0 then "-" else fmt_float h.h_max))
    s;
  Format.fprintf ppf "@]"

let json_float v =
  if Float.is_nan v then "null"
  else if v = infinity then "\"inf\""
  else if v = neg_infinity then "\"-inf\""
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json (s : snapshot) =
  let b = Buffer.create 1024 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":" (json_escape name));
      match v with
      | Counter c -> Buffer.add_string b (string_of_int c)
      | Gauge g -> Buffer.add_string b (json_float g)
      | Histogram h ->
          Buffer.add_string b
            (Printf.sprintf "{\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"buckets\":["
               h.h_count (json_float h.h_sum) (json_float h.h_min)
               (json_float h.h_max));
          Array.iteri
            (fun i (le, c) ->
              if i > 0 then Buffer.add_char b ',';
              Buffer.add_string b
                (Printf.sprintf "[%s,%d]" (json_float le) c))
            h.h_buckets;
          Buffer.add_string b "]}")
    s;
  Buffer.add_char b '}';
  Buffer.contents b

let clear_counter c = Atomic.set c 0

let clear_histogram h =
  Mutex.lock h.h_mu;
  Array.fill h.counts 0 (Array.length h.counts) 0;
  h.sum <- 0.;
  h.count <- 0;
  h.minv <- nan;
  h.maxv <- nan;
  Mutex.unlock h.h_mu

let reset t =
  let instruments =
    with_registry t (fun () ->
        Hashtbl.fold (fun _ i acc -> i :: acc) t.tbl [])
  in
  List.iter
    (fun i ->
      match i with
      | Icounter r -> clear_counter r
      | Igauge g -> set_gauge g 0.
      | Igauge_fn _ -> ()
      | Ihist h -> clear_histogram h)
    instruments
