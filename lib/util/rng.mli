(** Deterministic pseudo-random number generator (splitmix64).

    All randomized components of the library (benchmark generation, random
    simulation patterns, ...) draw from this generator so that every run of
    the test suite and of the benchmark harness is reproducible. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val bool : t -> bool

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
