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
    restarts with the sharpened signatures. The oracle builds every
    node's BDD in one sweep ({!Robdd.Of_network.all}) at the first
    validation after a mutation and keeps that table for the network
    revision. A validated candidate commits through {!commit}
    ({!Logic_network.Lift.set_cover_if_cheaper}) iff the node's factored
    literal count strictly decreases, which is decided before the
    network is touched, so a losing candidate leaves the revision (and
    the oracle's table) as it was; since candidates are covers over
    existing nodes, no attempt ever allocates a node id. A committed
    candidate equals the node on every input when no EXCDC cube of the
    run's view binds to an input, so no node's global function moves
    and the oracle keeps its table, and its manager, across the
    commit; when one binds, the next validation rebuilds.

    A scan walks TFO([f]) once: the pool is every other live node in
    ascending id order, and restarts after a refinement reuse it. The
    ranked shortlist is the top {!default_max_divisors} of the pool by
    signature agreement (ties by ascending id), selected without
    sorting the pool. A run remembers, per dividend, what its last
    quiet scan (one that neither committed nor refined) read that a
    commit could move: the counterexample row count, [f]'s cover
    (physically) and fanins, and TFO([f]). A later scan of [f] with all
    four unchanged is answered quiet at once, without ranking,
    enumeration or validation: a commit is validated equal to its node
    on the care set, so it moves no node's care-set function; every
    signature test is care-masked and the oracle's miter is
    [care ∧ (f ⊕ shape)]; and a run never adds or removes a node, so
    TFO([f]) fixes the pool. The scan would repeat itself.

    Passes and the deadline are {!Booldiv.Scheduler}'s. *)

val default_max_divisors : int
(** Size of the ranked divisor shortlist the 1-/2-resub pair and triple
    enumerations draw from (24). *)

val default_max_triples : int
(** How many top-ranked divisors enter the 2-resub triple enumeration
    (8); [0] disables 2-resub. *)

val run :
  ?sim_seed:int ->
  ?sim_words:int ->
  ?deadline_at:float ->
  ?trace:Rar_util.Trace.t ->
  ?counters:Rar_util.Counters.t ->
  ?dc:Logic_network.Dont_care.t ->
  Logic_network.Network.t ->
  int
(** Run constructive resubstitution to a fixpoint (at most four
    passes, {!default_max_triples} in the 2-resub enumeration) and
    return the number of committed rewrites. [sim_words] and [sim_seed]
    configure the run's {!Logic_sim.Signature} engine: its width in
    64-bit words (default {!Logic_sim.Signature.default_words} = 512
    rows; raises [Invalid_argument] when ≤ 0), which also caps the
    counterexample rows at [64 * sim_words], and the seed of the base
    stimulus the rows overwrite. Every caller outside the tests keeps
    the default width: [sim_words] stays because the aliasing and
    vector-width tests need a one-word engine, which fills its 64
    counterexample rows quickly. [deadline_at] bounds the wall clock (polled per
    dividend; one [degradations] tick when crossed). Tallies land in
    [counters]: [kresub_candidates] (signature-matched constructions),
    [kresub_validated] (passed the exact check), [kresub_refinements]
    (counterexample rows folded back), [kresub_reused] (scans answered
    quiet because they repeated the dividend's last quiet scan), with
    oracle time in [validation_seconds] and construction time, the
    reuse test included, in [filter_seconds] — [division_seconds]
    stays untouched by design. A reused scan proposes and validates
    nothing, so [kresub_candidates] and [kresub_validated] count only
    the scans that ran, and so does the per-pass [pass_divisions] the
    scheduler tallies for this driver (its [kresub_candidates] by
    pass); the reply counters JSON ({!Rar_util.Counters.to_json})
    carries [kresub_reused] as well. *)

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

type oracle
(** The exact validation oracle of one run: global BDDs over the primary
    inputs, one table per network revision. *)

val oracle : ?dc:Logic_network.Dont_care.t -> Logic_network.Network.t -> oracle

val validate :
  oracle ->
  f:Logic_network.Network.node_id ->
  Twolevel.Cover.t ->
  bool array option
(** Test hook: [None] when [cover] (over node ids) equals [f]'s global
    function on the oracle's care set, otherwise a distinguishing input
    assignment in {!Logic_network.Network.inputs} order — the row
    {!Logic_sim.Signature.refine} takes. *)

val oracle_table :
  oracle ->
  Robdd.Bdd.man * (Logic_network.Network.node_id, Robdd.Bdd.t) Hashtbl.t
(** Test hook: the manager and node table validation would use now,
    built on first use after each mutation {e other than} a {!commit}
    that keeps it. *)

val commit :
  oracle ->
  f:Logic_network.Network.node_id ->
  below:int ->
  Twolevel.Cover.t ->
  bool
(** [commit o ~f ~below cover] installs [cover] (over node ids) on [f]
    through {!Logic_network.Lift.set_cover_if_cheaper} and returns its
    verdict. [cover] must have passed validation: it equals [f]'s
    global function on the oracle's care set. On a win while no EXCDC
    cube of the view binds to an input, a table that was current before
    the commit stays current after it, because no node's global
    function moved; any other mutation, and any commit while a cube
    binds, leaves the table to be rebuilt at the next validation. *)
