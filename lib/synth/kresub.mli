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
       polarities) over the ranked divisor pairs;}
    {- {b 2-resub}: one level deeper (three-divisor AND/OR trees,
       multiplexers, two-pair sums), budget-gated by [max_triples].}}

    Shapes are selected by word-parallel signature arithmetic: each
    shape's first signature word is folded with [land]/[lor]/[lnot] on
    native ints (its low 63 bits) before the shape is built, and only a
    shape that agrees with [f] there is built and compared on every
    word under the care mask. The 63-bit test is necessary for the full
    one, so it changes which shapes are built, never which are proposed.

    Each surviving candidate is validated {e exactly} against the BDD
    checker ({!Robdd.Of_network}), modulo the external don't-care view
    when one is given. A failed validation yields a counterexample
    input assignment which {!Logic_sim.Signature.refine} writes into a
    fresh simulation row of the run's signature engine — after which
    the same wrong candidate can never be proposed again (each
    counterexample permanently occupies its own row) — and the scan
    restarts with the sharpened signatures. A
    validated candidate commits through {!Lift.set_cover} iff the
    node's factored literal count strictly decreases; since candidates
    are covers over existing nodes, no attempt ever allocates a node id.

    Passes and the deadline are {!Booldiv.Scheduler}'s. *)

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
  ?sim_seed:int ->
  ?sim_words:int ->
  ?deadline_at:float ->
  ?trace:Rar_util.Trace.t ->
  ?counters:Rar_util.Counters.t ->
  ?dc:Logic_network.Dont_care.t ->
  Logic_network.Network.t ->
  int
(** Run constructive resubstitution to a fixpoint (bounded by
    [max_passes], default 4) and return the number of committed
    rewrites. [sim_words] and [sim_seed] configure the run's
    {!Logic_sim.Signature} engine: its width in 64-bit words (default
    {!Logic_sim.Signature.default_words} = 512 rows; raises
    [Invalid_argument] when ≤ 0), which also caps the counterexample
    rows at [64 * sim_words], and the seed of the base stimulus the
    rows overwrite. [deadline_at] bounds the wall clock (polled per
    dividend; one [degradations] tick when crossed). Tallies land in
    [counters]: [kresub_candidates] (signature-matched constructions),
    [kresub_validated] (passed the exact check), [kresub_refinements]
    (counterexample rows folded back), with oracle time in
    [validation_seconds] and construction time in [filter_seconds] —
    [division_seconds] stays untouched by design. *)

val proposals :
  ?max_divisors:int ->
  ?max_triples:int ->
  Logic_sim.Signature.t ->
  Logic_network.Network.t ->
  Logic_network.Network.node_id ->
  Twolevel.Cover.t list
(** Test hook: the candidates one scan of dividend [f] would validate,
    in proposal order, as covers over node ids — the shapes whose
    signature equals [f]'s on the care rows of [sim]'s current
    stimulus and whose estimated cost is under [f]'s factored literal
    count. *)
