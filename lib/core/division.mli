(** Boolean division at the cover level (function-level API).

    This is the pure, network-free face of the paper's algorithm, obtained
    by specialising the implication argument to a single function: the SOS
    split gives [f = f1·d + r] for free (Lemma 1), and a wire of [f1] is
    redundant exactly when the grown cube stays inside the function, which
    a containment (tautology) check decides. Don't cares are honoured by
    widening the containment target. The POS dual works on the complements
    (a POS of [f] is an SOP of [f'], Lemma 2). *)

type sop_result = {
  quotient : Twolevel.Cover.t;
  remainder : Twolevel.Cover.t;
}

val basic_sop :
  ?dc:Twolevel.Cover.t ->
  f:Twolevel.Cover.t ->
  d:Twolevel.Cover.t ->
  unit ->
  sop_result option
(** Boolean division [f = quotient·d + remainder]. The quotient starts as
    the cubes of [f] contained in some cube of [d] and is then shrunk
    literal-by-literal and cube-by-cube while preserving
    [quotient·d + remainder ≡ f] modulo [dc]. [None] when no cube of [f]
    is contained in [d] (quotient 0). The identity is guaranteed:
    [quotient·d ∪ remainder ≡ f] (mod dc). *)

type pos_result = {
  pos_quotient : Twolevel.Cover.t;  (** SOP cover of the factor [q]. *)
  pos_remainder : Twolevel.Cover.t;  (** SOP cover of the factor [r]. *)
}

val meets_support : f:Twolevel.Cover.t -> d:Twolevel.Cover.t -> bool
(** Every cube of [d] names a variable of [f]'s cubes
    ({!Twolevel.Cover.support}). This is necessary for a cube of
    [f_not], the {!Twolevel.Minimize.complement} of [f], to share no
    minterm with any cube of [d]: the Shannon complement
    splits only on variables of [f]'s cubes, and [simplify] (or the raw
    complement it keeps when its own result is longer) names no others,
    so a cube of [d] naming none of them is at distance 0 from every
    cube of [f_not]. It reads the cover's support, not the functional
    one: the raw complement of [ab + ab'] is [a'b + a'b'], which names
    [b]. *)

val basic_pos :
  ?complement_limit:int ->
  f:Twolevel.Cover.t ->
  d:Twolevel.Cover.t ->
  unit ->
  pos_result option
(** Product-of-sums division [f = (pos_quotient + d) · pos_remainder] —
    the paper's substitution "in the flavor of product-of-sum form".
    [None] when the POS containment yields nothing or a complement exceeds
    [complement_limit] cubes (default 1024). Complements are the memoised
    {!Twolevel.Minimize.complement}. *)

val pos_complements :
  ?complement_limit:int ->
  f:Twolevel.Cover.t ->
  d:Twolevel.Cover.t ->
  unit ->
  (Twolevel.Cover.t * Twolevel.Cover.t) option
(** The first half of {!basic_pos}: [(q_not, r_not)], the SOP division
    of [f]'s minimised complement by [d]'s, whose complements are the
    factors [q] and [r]. [None] exactly when {!basic_pos} fails before
    its last two complements. A pair {!meets_support} rejects returns
    [None] before [f] is complemented, and one where no cube of [f_not]
    is disjoint from every cube of [d] before [d] is: a cube inside a
    cube of [d]'s complement lies in [d]'s offset, so without one the
    division finds no quotient. *)

val pos_of_complements :
  ?complement_limit:int ->
  Twolevel.Cover.t * Twolevel.Cover.t ->
  pos_result option
(** The second half of {!basic_pos}: the minimised complements of
    [(q_not, r_not)]. [basic_pos] is {!pos_complements} then this. *)

val verify_pos :
  f:Twolevel.Cover.t -> d:Twolevel.Cover.t -> pos_result -> bool
