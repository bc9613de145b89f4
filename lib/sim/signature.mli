(** Per-node simulation signatures with incremental invalidation and
    counterexample rows.

    A signature engine attaches to a network and assigns every node a
    [64*words]-bit signature: the node's value under that many shared
    input patterns, computed bit-parallel in one topological pass (the
    {!Simulate.run} kernel). The engine subscribes to
    {!Logic_network.Network.on_mutation}, so after a node edit only the
    transitive fanout of the edited nodes is re-simulated — not the whole
    network — and refreshes run lazily at the next query. The engine
    hears a {!Logic_network.Network.attempt}'s mutations only when the
    outermost attempt commits, so a node's signature ({!signature} and
    the filter predicates built on it) cannot be read while an attempt
    is open: the read raises [Invalid_argument].

    The stimulus starts as deterministic pseudo-random patterns. A client
    that learns an input assignment the sample misses — a counterexample
    to a signature-level claim — folds it in with {!refine}: the
    assignment takes the next free row of every input, each row holds
    exactly one counterexample, and the rows persist for the engine's
    lifetime (the simulation-guided resubstitution loop of
    Lee/Riener/Mishchenko).

    Two kinds of client read the signatures. The division drivers use
    them as a {e conservative-only} divisor filter: a divisor is
    discarded when its signature proves no division of the dividend could
    use it on the sampled patterns ({!compatible}), and surviving
    candidates are ranked by onset-overlap popcount ({!score}). The
    constructive [resub-k] driver proposes replacements whose signature
    equals the dividend's on the care rows ({!care_mask}) and refines
    the stimulus with the exact oracle's counterexamples. Signatures can
    only skip or propose work, never accept a bad rewrite: every rewrite
    is still checked by its driver (literal gain with rollback, or an
    exact validation) and by the harness's equivalence checks.

    Every comparison is care-masked: without a view (or with one whose
    cubes name no input) the mask holds every row, so one algebra serves
    both cases.
    Every driver (sis, basic, ext, ext-GDC, resub-k and rar) picks its
    divisors with {!rank}, each with its own admission test and score. *)

type t

val default_words : int
(** 8 words = 512 random patterns. *)

val default_seed : int
(** Seed used when [create] is given none (and by the [--sim-seed]
    default of the CLI and bench drivers). *)

val create :
  ?seed:int ->
  ?words:int ->
  ?dc:Logic_network.Dont_care.t ->
  Logic_network.Network.t ->
  t
(** Build the engine and simulate the whole network once. The engine
    stays subscribed to the network's mutations until {!detach}. Each
    input's stimulus is a deterministic function of [(seed, node id)]
    and the counterexample rows alone, so two engines with equal seeds
    and rows assign equal signatures — even when one was kept up to date
    incrementally and the other was built from scratch after the same
    mutations: replaying [rows t] through {!refine}, oldest first, on a
    fresh engine over a copy of [t]'s network reproduces [t]'s
    signatures.

    [dc] supplies an external don't-care view: simulation rows whose
    input pattern matches an EXCDC cube are outside the care set.
    {!score} ranks by care-set overlap only, while {!compatible} /
    {!phase_compatible} treat don't-care rows as wildcards — a rewrite
    is free to pick either value there, so such a row can always supply
    the overlap a division needs, and the admission tests pass whenever
    the sample holds one. A view thus never prunes {e harder} than the
    DC-less filter (the monotonicity discipline: don't cares may only
    unlock rewrites). The view is bound to the input stimulus
    ({!Logic_network.Dont_care.care_mask}) on first use and again after
    each {!refine}, independently of network mutations. Raw signatures
    ({!signature}) are {e not} masked. A view with no cube over this
    network's inputs leaves every predicate byte-identical to a DC-less
    engine. *)

val detach : t -> unit
(** Unsubscribe from the network (idempotent). Call when the engine's
    lifetime ends before the network's. *)

val words : t -> int

val signature : t -> Logic_network.Network.node_id -> int64 array
(** The node's current signature; triggers a (lazy, incremental) refresh
    if mutations happened since the last query. Do not mutate the
    returned array. Raises [Invalid_argument] when [id] names no node
    of the network (never allocated, or removed). *)

val pattern : t -> Logic_network.Network.node_id -> int64 array
(** The stimulus assigned to a primary input (memoised; also usable as
    [input_values] for {!Simulate.run} to reproduce the engine's
    valuation). *)

val refresh : t -> unit
(** Force the pending re-simulation now (normally implicit; every
    {!signature} read runs it). @raise Invalid_argument while an attempt
    is open on the network. *)

val refine : t -> bool array -> unit
(** [refine t assignment] writes the input assignment ([assignment.(i)]
    is the value of the [i]-th of {!Logic_network.Network.inputs}) into
    the next free row of every input's stimulus. Only the inputs' fanout
    is re-simulated, lazily at the next query; the cached care mask is
    dropped, since the new row may land in an EXCDC cube. Arrays
    returned earlier by {!signature} and {!pattern} are not mutated.
    Raises [Invalid_argument] when all [64 * words] rows already hold a
    counterexample. *)

val rows : t -> bool array list
(** The counterexample rows, oldest first. Row [j] is bit [j mod 64] of
    word [j / 64]; rows past the list keep the base pattern. *)

(** {1 Divisor filter} *)

val phase_compatible :
  t ->
  phase:bool ->
  f:Logic_network.Network.node_id ->
  d:Logic_network.Network.node_id ->
  bool
(** Phase-specific necessary condition: dividing [f] by [d] ([phase] =
    [true]) needs [f]'s onset to meet [d]'s onset; dividing by the
    complement [d'] needs [f]'s onset to meet [d]'s offset. *)

val compatible :
  t ->
  use_complement:bool ->
  f:Logic_network.Network.node_id ->
  d:Logic_network.Network.node_id ->
  bool
(** Necessary condition (on the sampled patterns) for a division of [f]
    by [d] to have a non-trivial quotient: the onset of [f] must meet the
    onset of [d] — or the offset of [d] when complement-phase division is
    allowed. Rejections are sound only as an optimisation: a rejected
    pair is skipped, never mis-evaluated. *)

val score :
  t ->
  use_complement:bool ->
  f:Logic_network.Network.node_id ->
  d:Logic_network.Network.node_id ->
  int
(** Ranking score: how much of [f]'s sampled onset the divisor covers
    (best of the two phases when [use_complement]). Replaces the
    per-pair transitive-fanin intersection cardinality of the seed
    implementation. *)

val rank : k:int -> score:('a -> int) -> 'a array -> 'a array
(** The first [min k (length pool)] entries of [pool] by [score]
    descending, ties in pool order: the prefix that a stable sort by
    descending score gives. Bounded insertion, so an entry that does
    not beat the current [k]-th costs one comparison. [score] is called
    at most once per entry. *)

(** {1 Care-masked comparisons}

    Only the care rows take part: all rows when no EXCDC cube binds,
    otherwise the rows outside every bound cube. Unlike the
    admission tests above, these are exact on the sample — a don't-care
    row is ignored, not treated as a wildcard. *)

val care_mask : t -> int64 array option
(** The care rows as a mask, [None] when every row cares. Cached until
    {!refine} adds a row. *)

val subset_on_care : t -> int64 array -> int64 array -> bool
(** No care row holds the first signature without the second. *)

val agreement : t -> int64 array -> int64 array -> int
(** Best-phase agreement: the number of care rows on which the two
    signatures agree, or on which they differ, whichever is larger. One
    popcount per word: the rows that agree are the care rows (counted
    once, with the care mask) less those that differ. *)
