(* Allocation gate helpers. Minor-heap words are deterministic for a
   given build, so a ceiling on words per call is a stable regression
   gate where wall time is not. *)

(* Words allocated on both heaps so far: a block too large for the minor
   heap goes straight to the major one. The minor count comes from
   [Gc.minor_words], exact at any point; the minor figure of
   [Gc.counters] jumps across a minor collection. *)
let allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Words one call of [f] allocates on both heaps. *)
let total_words f =
  let before = allocated () in
  ignore (Sys.opaque_identity (f ()));
  allocated () -. before

(* Mean minor words allocated by one call of [f], after a warm-up call
   (first-call effects such as lazy tables are excluded). *)
let words_per_call ?(calls = 200) f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let check_ceiling name ~ceiling f =
  let w = words_per_call f in
  if w > ceiling then
    Alcotest.failf "%s allocates %.1f words per call, ceiling %.1f" name w
      ceiling
