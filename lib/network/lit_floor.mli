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

val pos : f:Twolevel.Cover.t -> d:Twolevel.Cover.t -> int
(** A floor on the factored count of [f]'s cover after a product-of-sums
    substitution [f = (q + y)·r] by a divisor [d] that is not yet a
    fanin of [f]. [f] and [d] are covers over one slot space; [y] is a
    new slot for [d]'s literal. The rebuilt cover [g] satisfies
    [g(x, d(x)) = f(x)]. Take a pair of minterms that differ in one
    variable and lie on one side of [d] (both in [d] or both outside):
    [g] at the matching value of [y] is [f] on both, so every cover of
    [g] names each literal [f] needs on such a pair. If [g] depends on
    [y] its cover also names [y]; otherwise [g] is [f]. The floor is
    [min (|RL(f)|, |RL_d(f)| + 1)], [RL] as in {!required_literals} and
    [RL_d] its same-side part ({!Twolevel.Truth_table.region_literals}),
    when both covers fit one truth table. Above
    {!Twolevel.Truth_table.max_vars} variables it is the support floor:
    the variables of [f]'s functional support that [d]'s cover does not
    name, plus one when the support meets [d]'s. The stored cover is
    the injective renaming of [g], so it names as many literals. *)

val required_literals : Twolevel.Cover.t -> int
(** The literals every SOP cover of the cover's function names (see
    {!Twolevel.Truth_table.required_literals}); a function and its
    complement need equally many. Truth tables decide it up to
    {!Twolevel.Truth_table.max_vars} variables, cofactor containment
    above. Memoised per domain on the cover. *)

val pos_rebuild : q_not:Twolevel.Cover.t -> r_not:Twolevel.Cover.t -> int
(** A floor on the factored count of the cover [g = (q + y)·r] a
    product-of-sums substitution rebuilds, given the complements
    [q_not] and [r_not] of its factors, before either is complemented.
    [g] equals [r] at [y = 1] and [q·r] at [y = 0], and cofactoring a
    cover by [y] keeps a subset of its literals, so every cover of [g]
    names every literal that every cover of [r] or of [q·r] names. Up
    to complementing each literal, those are the literals
    {!required_literals} counts for [r_not] and [q_not + r_not]: the
    floor counts their union. It also names [y] or [y'] when [g]
    depends on [y], i.e. when [r·q' ≠ 0], i.e. when [q_not] is not
    inside [r_not]. Up to {!Twolevel.Truth_table.max_vars} variables
    the union is read off truth tables; above, only [r_not]'s literals
    count. The figure holds for the stored cover when [y] is a new
    fanin, so the renaming is injective. *)

val remainder : ?absorber:Twolevel.Literal.t -> Twolevel.Cube.t list -> int
(** The distinct literals of the cubes that no other cube of the list
    strictly contains and that do not hold [absorber]. A cover that keeps
    every such cube, renamed injectively, has at least this factored
    count. Single-cube containment can drop a cube strictly inside
    another, and the cube [absorber] alone, when a cover gains it,
    absorbs every cube holding [absorber]: neither counts. *)
