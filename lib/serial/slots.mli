(** Open-addressing int-keyed tables for the binary codecs' per-call
    bookkeeping (object ids, interned names), which their users keep in a
    per-domain spare and reuse from call to call.

    Every slot carries the generation that filled it, so {!clear} is one
    increment: a reused table allocates nothing in steady state, where a
    reused [Hashtbl] allocates a bucket per binding (40 words per
    {!Bin_ser} call on the sample person). It grows (doubling) only when
    more than half full, so its size stays linear in the number of
    bindings of the largest call it served. *)

type t

val create : unit -> t

val clear : t -> unit
(** Drops every binding, in O(1). *)

val length : t -> int
(** Bindings since the last {!clear}. *)

val words : t -> int
(** Heap words held by the table's arrays. *)

val find : t -> int -> int
(** The value bound to the key, or [-1]. Values must be non-negative. *)

val replace : t -> int -> int -> unit
(** Binds the key, replacing any previous binding. *)

val intern : t -> names:string array -> string -> int -> int
(** [intern t ~names s i] is the value [j] bound under [Hashtbl.hash s]
    with [names.(j) = s] if there is one; otherwise it binds [i] there
    and returns [i], and the caller stores [s] at [names.(i)]. *)
