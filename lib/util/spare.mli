(** Per-domain spare scratch values.

    A codec call that needs scratch state (a writer, a table of ids)
    borrows its domain's spare instead of building one: a steady stream
    of calls allocates no scratch. A call that finds the spare taken (a
    nested or concurrent call) gets a fresh value, used once. *)

type 'a t

val limit_words : int
(** A spare that holds more heap words than this after a call is
    dropped (and recreated) instead of emptied, so one huge call is not
    retained. *)

val make :
  create:(unit -> 'a) -> clear:('a -> unit) -> words:('a -> int) -> 'a t
(** [clear] empties a value for its next use; [words] estimates the heap
    words a value holds. *)

val use : 'a t -> ('a -> 'b -> 'c -> 'd) -> 'b -> 'c -> 'd
(** [use t f x y] is [f s x y] for the calling domain's spare [s], which
    goes back emptied (or dropped past {!limit_words}) when [f] returns
    or raises. [f]'s arguments are passed through so that a top-level
    [f] needs no closure. *)
