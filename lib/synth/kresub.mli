(** Constructive simulation-guided k-resubstitution ([resub-k]).

    Where the division methods use simulation signatures only to {e
    filter} (dividend, divisor) pairs before running Boolean division,
    this driver turns them into a {e candidate generator} in the style
    of Lee/Riener/Mishchenko's simulation-guided resubstitution: for
    each dividend [f] it gathers signature-compatible divisors under the
    care mask (honouring {!Logic_network.Dont_care} wildcard rows) and
    directly constructs whole-node replacement candidates —

    {ul
    {- {b 0-resub}: an existing node, its complement, or a constant
       whose masked signature equals [f]'s;}
    {- {b 1-resub}: [f = g op h] for op ∈ {AND, OR, XOR} (all operand
       polarities) over divisor pairs selected by word-parallel
       signature arithmetic;}
    {- {b 2-resub}: one level deeper (three-divisor AND/OR trees),
       budget-gated by [max_triples].}}

    Each surviving candidate is validated {e exactly} against the BDD
    checker ({!Robdd.Of_network}), modulo the external don't-care view
    when one is given. A failed validation yields a counterexample
    input assignment which is folded back into the stimulus as a fresh
    simulation row — after which the same wrong candidate can never be
    proposed again (each counterexample permanently occupies its own
    row) — and the scan restarts with the sharpened signatures. A
    validated candidate commits through {!Lift.set_cover} iff the
    node's factored literal count strictly decreases; since candidates
    are covers over existing nodes, no attempt ever allocates a node id.

    Passes, [jobs > 1] and the memo are {!Booldiv.Scheduler}'s, with
    dividend-level memo entries keyed on the refinement generation, so
    [--jobs N] and [--no-memo] stay byte-identical to the sequential
    memoised run. *)

val default_max_divisors : int
(** Size of the ranked divisor shortlist the 1-/2-resub pair and triple
    enumerations draw from (24). *)

val default_max_triples : int
(** How many top-ranked divisors enter the 2-resub triple enumeration
    (8); [0] disables 2-resub. *)

val run :
  ?max_divisors:int ->
  ?max_triples:int ->
  ?max_passes:int ->
  ?jobs:int ->
  ?sim_seed:int ->
  ?sim_words:int ->
  ?use_memo:bool ->
  ?deadline_at:float ->
  ?trace:Rar_util.Trace.t ->
  ?counters:Rar_util.Counters.t ->
  ?dc:Logic_network.Dont_care.t ->
  Logic_network.Network.t ->
  int
(** Run constructive resubstitution to a fixpoint (bounded by
    [max_passes], default 4) and return the number of committed
    rewrites. [sim_words] sizes the signature vectors in 64-bit words
    (default {!Logic_sim.Signature.default_words} = 512 bits; raises
    [Invalid_argument] when ≤ 0); [sim_seed] seeds the deterministic
    base stimulus. [deadline_at] bounds the wall clock (polled per
    dividend; one [degradations] tick when crossed). Tallies land in
    [counters]: [kresub_candidates] (signature-matched constructions),
    [kresub_validated] (passed the exact check), [kresub_refinements]
    (counterexample rows folded back), with oracle time in
    [validation_seconds] and construction time in [filter_seconds] —
    [division_seconds] stays untouched by design. *)
