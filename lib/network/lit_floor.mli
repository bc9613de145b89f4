(** Exact lower bounds on a node's factored literal count after a
    division attempt, computed before the attempt's expensive step.

    A division commits only when the dividend's new factored count
    ({!Twolevel.Factor.count}) drops below a known figure. Both bounds
    rest on one fact: factoring is algebraic, so every literal of a
    cover is a leaf of its factored form, and [Factor.count c] is at
    least the number of distinct literals of [c], hence at least the
    number of variables [c] names. When a floor already reaches what
    the attempt must beat, the attempt cannot pay and is skipped; it
    would have failed its gain test, so skipping it changes no result
    (DESIGN §19). *)

val functional_support : Twolevel.Cover.t -> int list
(** The variables the cover's function depends on, ascending: a subset
    of {!Twolevel.Cover.support}. Truth tables decide it up to
    {!Twolevel.Truth_table.max_vars} variables, cofactor equivalence
    above. Memoised per domain on the cover ({!Twolevel.Cover_memo}). *)

val pos : Network.t -> f:Network.node_id -> d:Network.node_id -> int
(** A floor on the factored count of [f]'s cover after a product-of-sums
    substitution [f = (q + d)·r] that adds [d] as a fanin, and [0] when
    [d] is already a fanin of [f]. Let [S] be [f]'s functional support
    and [out] the variables of [S] outside [d]'s fanins. Since
    [f(x) = g(x, d(x))] for the rebuilt cover [g], [g] depends on every
    variable in [out]. It also depends on [d]'s literal, unless it
    computes [f] itself, in which case it depends on all of [S]. The
    floor is [|out|], plus one when [S] meets [d]'s fanins. With [d]
    not among [f]'s fanins the stored cover is renamed injectively, so
    it names as many variables. *)

val required_literals : Twolevel.Cover.t -> int
(** The literals every SOP cover of the cover's function names (see
    {!Twolevel.Truth_table.required_literals}); a function and its
    complement need equally many. Truth tables decide it up to
    {!Twolevel.Truth_table.max_vars} variables, cofactor containment
    above. *)

val pos_rebuild : q_not:Twolevel.Cover.t -> r_not:Twolevel.Cover.t -> int
(** A floor on the factored count of the cover [g = (q + y)·r] a
    product-of-sums substitution rebuilds, given the complements
    [q_not] and [r_not] of its factors, before either is complemented.
    [g] equals [r] at [y = 1], and cofactoring a cover by [y] keeps a
    subset of its literals, so every cover of [g] names the literals
    every cover of [r] names: {!required_literals} of [r_not]. It also
    names [y] or [y'] when [g] depends on [y], i.e. when [r·q' ≠ 0],
    i.e. when [q_not] is not inside [r_not]. The figure holds for the
    stored cover when [y] is a new fanin, so the renaming is
    injective. *)

val remainder : ?absorber:Twolevel.Literal.t -> Twolevel.Cube.t list -> int
(** The distinct literals of the cubes that no other cube of the list
    strictly contains and that do not hold [absorber]. A cover that keeps
    every such cube, renamed injectively, has at least this factored
    count. Single-cube containment can drop a cube strictly inside
    another, and the cube [absorber] alone, when a cover gains it,
    absorbs every cube holding [absorber]: neither counts. *)
