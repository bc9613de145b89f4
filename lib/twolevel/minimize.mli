(** Two-level minimization (espresso-lite).

    EXPAND / IRREDUNDANT / REDUCE rounds with optional don't cares. It is
    weaker than full Espresso (no LAST_GASP, no blocking-matrix
    expansion, and above 8 variables REDUCE falls back to the original
    cube when its complement grows too large) but exact in the sense that
    the result is a prime-ish irredundant cover of the same function
    modulo the don't-care set. This implements the SIS [simplify] command of the
    paper's starting scripts and the "force Espresso to do Boolean
    division" baseline of Section I. {!complement} is the minimised
    complement the division drivers divide by. *)

val expand : ?dc:Cover.t -> Cover.t -> Cover.t
(** Greedily remove literals from each cube while the enlarged cube stays
    inside onset ∪ dc. One staged containment of onset ∪ dc answers
    every trial. *)

val irredundant : ?dc:Cover.t -> Cover.t -> Cover.t
(** Remove cubes covered by the union of the remaining cubes and [dc]. *)

val reduce : ?dc:Cover.t -> Cover.t -> Cover.t
(** Espresso's REDUCE: shrink each cube to the supercube of the minterms
    it alone covers (its essential part), opening room for the next
    expansion to leave the local minimum. When the cube and the other
    cubes (with dc) mention at most 8 variables, the essential part is
    [cube ∧ ¬others] on truth tables ({!Truth_table}). Above that it is
    the cube times the complement of the others, and the cube stays as it
    is when that complement exceeds 256 cubes. At most 8 variables, the
    complement never does, so both paths give the same cube. *)

val simplify : ?dc:Cover.t -> Cover.t -> Cover.t
(** Single-cube containment, then expand/irredundant/reduce rounds in the
    espresso style, iterated to a fixpoint (bounded); never grows the
    literal count. When the cover and dc mention at most 8 variables,
    one truth-table space serves the whole call and each pass builds
    one table per cube; the answers are those of the per-query path. *)

val complement : limit:int -> Cover.t -> Cover.t option
(** [complement ~limit c] is
    [Option.map simplify (Complement.cover_limited ~limit c)]: the
    minimised complement, [None] when the Shannon complement exceeds
    [limit] cubes. Results are memoised per domain in a small table
    keyed on [(limit, c)] ({!Cover_memo}, two generations of 64
    entries); since the function is pure, a hit returns exactly what the
    computation would. *)
