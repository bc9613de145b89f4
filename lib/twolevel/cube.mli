(** Cubes (product terms): conjunctions of literals over distinct variables.

    A cube is kept as a strictly sorted list of literal codes; at most one
    phase of each variable may appear. The empty cube is the constant-1
    function (the "top" cube). A contradictory literal set (both phases of a
    variable) does not denote a cube at all — constructors return [None] for
    it, mirroring the fact that such a product is the constant 0 and is
    represented by the empty {e cover}, not by a cube.

    Containment follows the paper's convention: cube [c1] {e is contained by}
    cube [c2] when onset(c1) ⊆ onset(c2), i.e. when [c2]'s literals are a
    subset of [c1]'s.

    Cubes are stored as packed {!Cube_kernel} bitvectors (two bits per
    variable), so containment, intersection and distance are word-parallel
    bitwise loops rather than literal-list walks. *)

type t

val top : t
(** The literal-free cube: constant 1. *)

val of_literals : Literal.t list -> t option
(** Normalise a literal list into a cube; [None] if two opposite phases of
    the same variable occur. *)

val of_literals_exn : Literal.t list -> t
(** @raise Invalid_argument on contradictory literal lists. *)

val literals : t -> Literal.t list
(** Sorted literal list. *)

val rename : (int -> int) -> t -> t
(** [rename f c] is [c] with every variable [v] replaced by [f v], written
    straight into the packed words. [f] must be injective on [c]'s
    support, which is not checked: a non-injective [f] could put both
    phases of a variable into the result. *)

val rename_opt : (int -> int) -> t -> t option
(** {!rename} for any [f]: literals mapped onto the same literal merge,
    and [None] when the result holds both phases of a variable (the
    renamed product is constant 0). Equal to
    [of_literals (List.map (fun l -> Literal.make (f (Literal.var l))
    (Literal.is_pos l)) (literals c))]. *)

val fold_literals : ('a -> Literal.t -> 'a) -> 'a -> t -> 'a
(** Left fold over the literals in increasing code order, without
    materialising the list. *)

val kernel : t -> Cube_kernel.t
(** The packed representation itself (zero-cost view). *)

val of_kernel_exn : Cube_kernel.t -> t
(** Re-admit a packed code set as a cube.
    @raise Invalid_argument if it holds both phases of a variable. *)

val size : t -> int
(** Number of literals. *)

val hash : t -> int
(** Precomputed hash of the packed words. *)

val is_top : t -> bool

val mem : Literal.t -> t -> bool

val phase_of_var : t -> int -> bool option
(** Phase with which a variable occurs, if it occurs. *)

val contained_by : t -> t -> bool
(** [contained_by c1 c2] iff onset(c1) ⊆ onset(c2), i.e. every literal of
    [c2] also appears in [c1]. *)

val intersect : t -> t -> t option
(** Boolean AND of two cubes; [None] when they conflict (empty onset). *)

val distance : t -> t -> int
(** Number of variables appearing with opposite phases in the two cubes. *)

val remove_var : int -> t -> t
(** Drop any literal of the given variable. *)

val remove_literal : Literal.t -> t -> t
(** Drop the exact literal if present. *)

val remove_all : t -> t -> t
(** [remove_all c strip] drops every literal of [strip] from [c] in one
    word-parallel pass (the n-ary form of {!remove_literal}). *)

val add_literal : Literal.t -> t -> t option
(** AND a single literal into the cube. *)

val cofactor : Literal.t -> t -> t option
(** Shannon cofactor of the cube with respect to a literal being true:
    [None] when the cube contains the opposite literal (the cofactor is 0);
    otherwise the cube with any same-phase literal removed. *)

val algebraic_div : t -> t -> t option
(** [algebraic_div c d] is the cube [c / d] of algebraic (weak) division:
    defined iff every literal of [d] occurs in [c], in which case it is [c]
    with [d]'s literals removed. *)

val common : t -> t -> t
(** Largest cube dividing both arguments (intersection of literal sets). *)

val support : t -> int list
(** Sorted variable indices. *)

val eval : (int -> bool) -> t -> bool
(** Evaluate under a complete assignment of the support. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val to_string : ?names:(int -> string) -> t -> string
(** The top cube prints as ["1"]. *)
