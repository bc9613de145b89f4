(** Reduced ordered binary decision diagrams.

    Hash-consed, manager-based ROBDDs with the operations needed by the
    repo: boolean connectives, the generalized cofactor ([constrain])
    that underlies the Stanion–Sechen BDD-division baseline (reference
    [14] of the paper), a satisfiability helper, and formal equivalence
    (pointer equality). Variable order is
    the identity order on integer variable indices. *)

type man

type t
(** A node handle, valid only with the manager that created it. *)

val create : unit -> man

val bfalse : man -> t

val btrue : man -> t

val var : man -> int -> t
(** The function of a single positive variable. *)

val nvar : man -> int -> t

val not_ : man -> t -> t

val band : man -> t -> t -> t

val bor : man -> t -> t -> t

val bxor : man -> t -> t -> t

val ite : man -> t -> t -> t -> t

val equal : t -> t -> bool
(** Functional equivalence — constant time thanks to hash-consing. *)

val is_false : man -> t -> bool

val constrain : man -> t -> t -> t
(** [constrain m f c] is the Coudert–Madre generalized cofactor [f ↓ c]:
    agrees with [f] wherever [c] holds, and satisfies
    [f ∧ c = (f ↓ c) ∧ c]. [c] must not be the constant 0. *)

val eval : man -> t -> (int -> bool) -> bool

val any_sat : man -> t -> (int * bool) list option
(** Some satisfying partial assignment, or [None] for constant 0. *)
