(** Small string helpers shared across the middleware. *)

val starts_with : prefix:string -> string -> bool
val split_on : char -> string -> string list

val join : string -> string list -> string
(** [join sep parts] concatenates with [sep] between elements. *)

val equal_ci : string -> string -> bool
(** ASCII case-insensitive equality; identifier comparison in the CTS is
    case-insensitive, mirroring the paper's name rule. Compared in
    place. *)

val hash_ci : string -> int
(** A hash consistent with {!equal_ci}, computed in place: keys a table
    looked up by names in any case without lowercasing them. *)

val compare_ci : string -> string -> int

val is_identifier : string -> bool
(** True for [\[A-Za-z_\]\[A-Za-z0-9_\]*] — validity check used by the class
    builder DSL. *)

val common_prefix_length : string -> string -> int

val truncate_middle : max:int -> string -> string
(** Shortens long strings for log and diagnostic output, keeping both ends. *)
