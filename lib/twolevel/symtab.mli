(** Mutable bidirectional registry between variable names and indices.

    Shared by the cover parser, the BLIF reader and the pretty printers so
    that a circuit and the covers extracted from it agree on variable
    numbering. *)

type t

val create : unit -> t

val intern : t -> string -> int
(** Index of a name, allocating the next index on first sight. *)

val find_opt : t -> string -> int option

val name : t -> int -> string
(** @raise Invalid_argument for an unknown index. *)

val size : t -> int
