(** Covers: sums of cubes (two-level sum-of-product representations).

    The empty cover is the constant 0; a cover containing the top cube is a
    tautology. Covers are the unit of manipulation for node functions in the
    multilevel network. *)

type t

val zero : t
(** Constant 0 (no cubes). *)

val one : t
(** Constant 1 (the single top cube). *)

val of_cubes : Cube.t list -> t

val cubes : t -> Cube.t list

val is_zero : t -> bool

val is_one : t -> bool
(** Syntactic check: some cube is the top cube. *)

val cube_count : t -> int

val literal_count : t -> int
(** Total literals, i.e. the flat (non-factored) SOP literal count. *)

val support : t -> int list
(** Sorted variable indices appearing in the cover. *)

val union : t -> t -> t
(** Boolean OR (cube list concatenation, duplicates removed). *)

val product : t -> t -> t
(** Boolean AND (pairwise cube intersection, contained cubes pruned). *)

val product_cube : Cube.t -> t -> t
(** AND with a single cube. *)

val cofactor : Literal.t -> t -> t
(** Shannon cofactor with respect to a literal being true. *)

val cofactor_cube : Cube.t -> t -> t
(** Generalised cofactor with respect to a whole cube. *)

val containment : t -> Cube.t -> bool
(** [containment f] is a staged {!contains_cube}: apply it once to [f],
    then ask about many cubes. When [f] mentions at most
    {!Truth_table.max_vars} variables, it builds [f]'s truth table once
    and each query ANDs the cube's literals into a mask. Literals on
    variables [f] does not mention are dropped, which is exact because
    [f] does not depend on them. Wider covers fall back to tautology of
    the cofactor of [f] by the cube. *)

val contains_cube : t -> Cube.t -> bool
(** [contains_cube f c] iff onset(c) ⊆ onset(f); it is
    [containment f c]. *)

val contains : t -> t -> bool
(** [contains f g] iff onset(g) ⊆ onset(f). *)

val equivalent : t -> t -> bool
(** Functional (not syntactic) equality. *)

val single_cube_containment : t -> t
(** Remove every cube contained by another single cube of the cover. *)

val eval : (int -> bool) -> t -> bool


val map_vars : (int -> int) -> t -> t
(** Rename variables; the mapping must be injective on the support.
    Literals mapped onto the same literal merge.
    @raise Invalid_argument when a cube would hold both phases of a
    variable. *)

val rename_vars : (int -> int) -> t -> t
(** Rename variables by a possibly non-injective mapping: literals of two
    variables mapped to the same target merge inside a cube, and cubes that
    become contradictory (both phases of a target) are dropped as constant
    0 products. *)

val compare : t -> t -> int
(** Structural comparison on the canonically sorted cube lists. *)

val equal : t -> t -> bool
(** Structural equality of canonically sorted cube lists. *)

val to_string : ?names:(int -> string) -> t -> string
(** ["0"] for the empty cover; cubes joined by [" + "]. *)
