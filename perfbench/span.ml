(* Span recorder for the traced run.

   Spans wrap the benchmark's own calls into the stack ([send_value],
   [poll], the interest callback, [Proxy.invoke], [acquire],
   [Driver.run]). Each closed span charges its {e self} time and self
   allocation (its duration minus what its child spans cover) to its
   name, and the first [capacity] spans are kept verbatim (name, start,
   end, parent, op id) to be written out when the run ends. Recording
   into preallocated arrays keeps the recorder itself allocation-free,
   so the allocation it charges belongs to the calls it wraps. When
   disabled, [enter] and [leave] are a single branch each. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* All-float, so OCaml stores the fields flat and updating them
   allocates no box. *)
type agg = { mutable self_ns : float; mutable self_words : float }

let max_depth = 16

type t = {
  mutable on : bool;
  (* Open frames, innermost at [depth - 1]. *)
  mutable depth : int;
  f_start : int array;
  f_words : float array;
  f_child_ns : int array;
  f_child_words : float array;
  f_id : int array;
  f_op : int array;
  (* Verbatim spans, in closing order. *)
  capacity : int;
  mutable recorded : int;
  mutable closed : int;
  r_name : string array;
  r_id : int array;
  r_start : int array;
  r_stop : int array;
  r_parent : int array;
  r_op : int array;
  aggs : (string, agg) Hashtbl.t;
}

let create ~capacity =
  {
    on = false;
    depth = 0;
    f_start = Array.make max_depth 0;
    f_words = Array.make max_depth 0.;
    f_child_ns = Array.make max_depth 0;
    f_child_words = Array.make max_depth 0.;
    f_id = Array.make max_depth 0;
    f_op = Array.make max_depth 0;
    capacity;
    recorded = 0;
    closed = 0;
    r_name = Array.make capacity "";
    r_id = Array.make capacity 0;
    r_start = Array.make capacity 0;
    r_stop = Array.make capacity 0;
    r_parent = Array.make capacity 0;
    r_op = Array.make capacity 0;
    aggs = Hashtbl.create 16;
  }

let enabled t = t.on

(* Only toggled between ops, never with a frame open. *)
let set_enabled t on = if t.depth = 0 then t.on <- on

let next_id = ref 0

let enter t ~op =
  if t.on then begin
    let d = t.depth in
    if d >= max_depth then failwith "Span.enter: nesting too deep";
    incr next_id;
    t.f_id.(d) <- !next_id;
    t.f_op.(d) <- op;
    t.f_child_ns.(d) <- 0;
    t.f_child_words.(d) <- 0.;
    t.f_words.(d) <- Gc.minor_words ();
    t.f_start.(d) <- now_ns ();
    t.depth <- d + 1
  end

(* [Hashtbl.find] rather than [find_opt]: no option is allocated inside
   the enclosing span. *)
let agg t name =
  try Hashtbl.find t.aggs name
  with Not_found ->
    let a = { self_ns = 0.; self_words = 0. } in
    Hashtbl.add t.aggs name a;
    a

(* [name] is given at close so a span can be classified by its outcome
   (a poll that made progress vs. one that only waited). *)
let leave t name =
  if t.on && t.depth > 0 then begin
    let stop = now_ns () in
    let words = Gc.minor_words () in
    let d = t.depth - 1 in
    t.depth <- d;
    let dur = stop - t.f_start.(d) in
    let alloc = words -. t.f_words.(d) in
    let a = agg t name in
    a.self_ns <- a.self_ns +. float_of_int (dur - t.f_child_ns.(d));
    a.self_words <- a.self_words +. (alloc -. t.f_child_words.(d));
    if d > 0 then begin
      t.f_child_ns.(d - 1) <- t.f_child_ns.(d - 1) + dur;
      t.f_child_words.(d - 1) <- t.f_child_words.(d - 1) +. alloc
    end;
    t.closed <- t.closed + 1;
    if t.recorded < t.capacity then begin
      let i = t.recorded in
      t.r_name.(i) <- name;
      t.r_id.(i) <- t.f_id.(d);
      t.r_start.(i) <- t.f_start.(d);
      t.r_stop.(i) <- stop;
      t.r_parent.(i) <- (if d > 0 then t.f_id.(d - 1) else 0);
      t.r_op.(i) <- t.f_op.(d);
      t.recorded <- i + 1
    end
  end

(* (self ns, self minor words) summed over every span of [name]. *)
let total t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> (a.self_ns, a.self_words)
  | None -> (0., 0.)

(* One JSON object per line, in closing order: span id, name, start and
   end in ns on the monotonic clock, parent span id (0 = none) and the
   op the span served (-1 = not tied to one op). *)
let write t path =
  let oc = open_out path in
  for i = 0 to t.recorded - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op\":%d}\n"
      t.r_id.(i) t.r_name.(i) t.r_start.(i) t.r_stop.(i) t.r_parent.(i)
      t.r_op.(i)
  done;
  close_out oc
