(** Packed positional-cube bitvectors: the word-parallel kernel every cube
    representation in the repository sits on.

    A kernel value is an immutable set of non-negative {e codes} packed two
    bits per variable into native [int] words ({!bits_per_word} usable bits
    each, an even number so a variable's bit pair never straddles a word
    boundary). Code [2v] and code [2v + 1] are the two phases of variable
    [v]; an absent pair ([00]) is the don't-care entry of espresso's
    positional-cube notation. Logical cubes never carry both bits of a pair
    — {!of_codes} and {!merge} reject that as a contradiction — while raw
    signal sets built with {!of_code_set} may.

    Every predicate is an O(words) loop of bitwise operations: containment
    is [small land (lnot big) = 0], intersection is [lor] plus a pair
    conflict mask, distance is a popcount of phase-opposition bits. Word
    arrays are trimmed of trailing zero words, so structural equality is
    wordwise equality and the literal count and a hash can be precomputed
    at construction.

    {!compare} is {e order-preserving}: it sorts exactly like
    [Stdlib.compare] on the strictly increasing code lists the seed
    represented cubes as. Cover canonicalisation, kernel candidate order
    and cube indices all inherit that order, which keeps results
    bit-identical across the representation change. *)

type t

val bits_per_word : int
(** Usable bits per packed word (even; 62 on 64-bit OCaml). *)

val top : t
(** The empty code set (the literal-free cube, constant 1). *)

val is_top : t -> bool

val size : t -> int
(** Number of codes present (precomputed popcount). *)

val hash : t -> int
(** Precomputed hash of the word array. *)

val of_codes : int list -> t option
(** Build a logical cube from literal codes; duplicates collapse and
    [None] is returned when both phases of a variable occur. *)

val of_code_set : int list -> t
(** Build a raw code set with no pair-conflict check (for lifted
    global-signal cubes, where both phases of a node may legitimately
    appear). *)

val consistent : t -> bool
(** No variable has both phases present (the test {!of_codes} applies). *)

val rename : (int -> int) -> t -> t
(** [rename f t] moves every code of variable [v] to variable [f v],
    keeping its phase. [f] is applied once per code, in increasing code
    order. No conflict check: a non-injective [f] may merge two codes
    into one or put both phases of a variable into the result.
    @raise Invalid_argument if [f] returns a negative variable. *)

val codes : t -> int list
(** Codes in strictly increasing order. *)

val codes_array : t -> int array
(** Codes in strictly increasing order, as a fresh array. *)

val fold_codes : ('a -> int -> 'a) -> 'a -> t -> 'a
(** Left fold over codes in increasing order. *)

val iter_codes : (int -> unit) -> t -> unit

val for_all_codes : (int -> bool) -> t -> bool

val mem_code : int -> t -> bool

val subset : t -> t -> bool
(** [subset a b] iff every code of [a] is a code of [b]. *)

val merge : t -> t -> t option
(** Set union; [None] when the union holds both phases of some variable
    (cube intersection semantics: conflicting cubes have empty onset). *)

val inter : t -> t -> t
(** Set intersection (largest common sub-cube). *)

val diff : t -> t -> t
(** Codes of the first argument not present in the second. *)

val distance : t -> t -> int
(** Number of variables whose two phases appear split across the two
    arguments. *)

val add_code : int -> t -> t option
(** Insert one code; [None] when the opposite phase is present. *)

val remove_code : int -> t -> t

val remove_var : int -> t -> t
(** Drop both phases of a variable. *)

val compare : t -> t -> int
(** Total order identical to [Stdlib.compare] on the increasing code
    lists: first differing code decides, a strict subset that forms a
    prefix sorts first. *)

val equal : t -> t -> bool
