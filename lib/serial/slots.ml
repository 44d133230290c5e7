type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable gens : int array;  (* a slot is live iff its gen is [gen] *)
  mutable gen : int;
  mutable count : int;
}

let initial = 16

let create () =
  {
    keys = Array.make initial 0;
    vals = Array.make initial 0;
    gens = Array.make initial 0;
    gen = 1;
    count = 0;
  }

let clear t =
  t.gen <- t.gen + 1;
  t.count <- 0

let length t = t.count
let words t = 3 * (Array.length t.keys + 1)

(* Fibonacci hashing spreads sequential ids and string hashes alike. *)
let[@inline] home t key =
  ((key * 0x1E3779B97F4A7C15) lsr 20) land (Array.length t.keys - 1)

let[@inline] next t i = (i + 1) land (Array.length t.keys - 1)
let[@inline] live t i = t.gens.(i) = t.gen

(* The slot holding [key], or the free slot where it would go. *)
let rec probe t key i =
  if (not (live t i)) || t.keys.(i) = key then i else probe t key (next t i)

let rec free_slot t i = if live t i then free_slot t (next t i) else i

let grow t =
  let keys = t.keys and vals = t.vals and gens = t.gens and gen = t.gen in
  let n = 2 * Array.length keys in
  t.keys <- Array.make n 0;
  t.vals <- Array.make n 0;
  t.gens <- Array.make n 0;
  t.gen <- 1;
  Array.iteri
    (fun i g ->
      if g = gen then begin
        let j = free_slot t (home t keys.(i)) in
        t.keys.(j) <- keys.(i);
        t.vals.(j) <- vals.(i);
        t.gens.(j) <- 1
      end)
    gens

let[@inline] room t = if 2 * (t.count + 1) > Array.length t.keys then grow t

let find t key =
  let i = probe t key (home t key) in
  if live t i then t.vals.(i) else -1

let fill t i key v =
  t.keys.(i) <- key;
  t.vals.(i) <- v;
  t.gens.(i) <- t.gen;
  t.count <- t.count + 1

let replace t key v =
  room t;
  let i = probe t key (home t key) in
  if live t i then t.vals.(i) <- v else fill t i key v

(* The slot holding [s], or the free slot where it would go. *)
let rec probe_string t names s h i =
  if (not (live t i)) || (t.keys.(i) = h && String.equal names.(t.vals.(i)) s)
  then i
  else probe_string t names s h (next t i)

let intern t ~names s v =
  room t;
  let h = Hashtbl.hash s in
  let i = probe_string t names s h (home t h) in
  if live t i then t.vals.(i)
  else begin
    fill t i h v;
    v
  end
