(** Truth tables of small functions.

    A table is the onset of a function over a {e space}: at most
    {!max_vars} variable ids, which may be sparse (lifted node ids, say).
    Position [i] of the space is the [i]-th smallest id. The table is an
    array of [int] chunks of 32 bits. The five lowest positions index the
    bit inside a chunk; the others index the chunk. Building a table ORs
    each cube in as a bit mask. Containment and the smallest enclosing
    cube are then a few word operations per chunk. No tautology
    recursion is needed. *)

type space
(** Sorted, distinct variable ids: at most {!max_vars} of them. *)

type t
(** A function over a space. *)

val max_vars : int
(** Largest space: 10 variables, 32 chunks. *)

val space : ?limit:int -> Cube.t list -> space option
(** The variables the cubes mention, when there are at most [limit] of
    them ([limit] defaults to, and may not exceed, {!max_vars}). *)

val of_cubes : space -> Cube.t list -> t
(** The OR of the cubes. Every variable they mention must be in the
    space. *)

val covers : t -> Cube.t -> bool
(** [covers t c] iff onset(c) ⊆ onset(t). Literals of [c] on variables
    outside the space are dropped. This is exact: [t] does not depend on
    those variables, so [t] covers [c] iff it covers [c] without them. *)

val empty : space -> t
(** The constant 0 over a space. *)

val union : t -> t -> t
(** [union a b] is [a ∨ b]. Both must be over the same space. *)

val diff : t -> t -> t
(** [diff a b] is [a ∧ ¬b]. Both must be over the same space. *)

val supercube : t -> Cube.t option
(** The smallest cube that contains the function: it keeps a literal [x]
    exactly when the onset lies inside [x]. [None] for the constant 0. *)

val support : t -> int list
(** The variables of the space the function depends on, ascending. *)

val required_literals : t -> int
(** The literals every SOP cover of the function names. A cover that
    never names [x] is negative unate in [x], so it names [x] whenever
    some minterm has the function at 1 with [x = 1] and at 0 with
    [x = 0]; [x'] symmetrically. Each variable counts 0, 1, or 2 when
    the function is binate in it. *)

val region_literals : ?region:t -> t list -> int
(** The literals [l] for which some function [h] of the list has a pair
    of minterms that differ only in [l]'s variable, lie on one side of
    [region] (both inside it or both outside), and have [h] at 1 on
    [l]'s side and at 0 on the other. Every SOP cover of a function
    that equals [h] on one side of [region] names such an [l], by the
    argument of {!required_literals}; the list unites the literals of
    its functions. Without [region] every pair counts, and
    [region_literals [t]] is [required_literals t]. All tables must be
    over one space. *)
