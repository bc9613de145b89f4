(** The substitution driver: applies Boolean division across a network.

    Implements the paper's three experimental configurations
    ({!basic_config}, {!extended_config}, {!extended_gdc_config}) plus
    POS-form substitution by Lemma 2 ({!substitute_pos}), tried against
    each ranked divisor that basic division did not commit. Extended
    division runs in SOP form only. For every node
    it ranks candidate divisors, attempts divisions in order, and —
    matching the paper's locally greedy policy — commits the first rewrite
    with a positive factored-literal gain. Passes repeat until a fixpoint
    (bounded by [max_passes]).

    Divisor candidates are selected through a simulation-signature filter
    ({!Logic_sim.Signature}, {!Logic_sim.Signature.default_words} words):
    pairs whose signatures prove no usable overlap are skipped before any
    division runs, and survivors are ranked by signature-overlap
    popcount. The filter is conservative-only — it can skip
    opportunities, never corrupt results, since every commit still goes
    through the literal-gain + rollback path. *)

type mode = Basic | Extended

type config = {
  mode : mode;
  gdc : bool;  (** global implications (all internal don't cares) *)
  learn_depth : int;  (** recursive-learning depth (0 = none) *)
  use_complement : bool;  (** also divide by divisor complements *)
  try_pos : bool;
      (** after a divisor's basic-division unit fails, try
          {!substitute_pos} against it *)
  max_divisors : int;  (** basic-division candidates per node *)
  max_pool : int;  (** divisor pool size for extended division *)
  max_passes : int;
  sim_seed : int;
      (** signature-filter RNG seed (default
          {!Logic_sim.Signature.default_seed}) *)
  dc : Logic_network.Dont_care.t option;
      (** external don't-care view (default [None]). EXCDC cubes become
          forbidden assignments in every implication engine spawned by
          the division methods, and mask the signature filter's sampled
          rows. The view is bound by input {e name}
          ({!Logic_network.Dont_care.bind}). [None], or a view with no
          cube over the network's inputs, leaves the run byte-identical
          to a DC-less one. *)
}

val basic_config : config
(** The paper's "basic" column: basic division only, local implications. *)

val extended_config : config
(** The paper's "ext." column: extended division, local implications. *)

val extended_gdc_config : config
(** The paper's "ext. GDC" column: extended division with global
    implications and depth-1 recursive learning. *)

type stats = {
  basic_substitutions : int;
  extended_substitutions : int;
  pos_substitutions : int;
  literals_before : int;
  literals_after : int;
  counters : Rar_util.Counters.t;
      (** pair/filter/division tallies and the wall-clock split between
          candidate filtering and division work *)
}

val run :
  ?config:config ->
  ?fault_fuel:int ->
  ?deadline_at:float ->
  ?trace:Rar_util.Trace.t ->
  ?counters:Rar_util.Counters.t ->
  Logic_network.Network.t ->
  stats
(** Optimise the network in place (default {!extended_config}). Literal
    figures are factored-form counts. When [counters] is supplied the
    run's tallies accumulate into it (and it is returned in
    {!stats.counters}); otherwise a fresh record is used.

    [fault_fuel] caps the implication steps each work unit (one division
    or extended-division attempt) may spend; [deadline_at] is an absolute
    {!Unix.gettimeofday} instant shared by all remaining units. When a
    unit's budget runs out it degrades — the quotient falls back toward
    the algebraic one, or the vote table is truncated — and the run
    continues; once the deadline has passed, {!Scheduler} starts no
    further dividend. Degradations are tallied in the counters and
    reported on [trace]. [trace] (default {!Rar_util.Trace.disabled})
    receives structured events: a [substitute] span, per-unit timings,
    [degrade] events, and the {!Scheduler}'s per-pass and final counter
    events. *)

val substitute_pos :
  ?counters:Rar_util.Counters.t ->
  Logic_network.Network.t ->
  f:Logic_network.Network.node_id ->
  d:Logic_network.Network.node_id ->
  bool
(** One POS-form substitution attempt [f = (q + d)·r], committed on
    positive factored gain; the network is mutated only on a commit.
    Three exact tests reject most attempts that cannot pay, each
    tallied in [counters]' [floor_rejects]: before any complement, the
    support test ({!Division.meets_support}, decided on [d]'s own cover
    against the nodes of [f]'s cover support, before [d] is lifted)
    and, when [d] is not yet a fanin of [f], the region floor
    {!Logic_network.Lit_floor.pos}; after [f]'s and [d]'s complements,
    the sliced floor {!Logic_network.Lit_floor.pos_rebuild}. {!run}
    shares the region floor with the basic unit of the same pair.
    Exposed for the examples and tests. *)

val attempt_basic :
  config:config ->
  ?budget:Rar_util.Budget.t ->
  counters:Rar_util.Counters.t ->
  sigs:Logic_sim.Signature.t ->
  Logic_network.Network.t ->
  f:Logic_network.Network.node_id ->
  d:Logic_network.Network.node_id ->
  bool
(** One basic-division work unit of [f] against [d], as {!run} runs it:
    [f = q·d + r] committed on a literal gain, then (with
    [config.use_complement]) [f = q·d' + r], then, when neither
    committed, the combined rewrite [f = q·d + q'·d' + r] in one
    {!Logic_network.Network.attempt}.
    Each phase's SOS set ({!Basic_division.f1_indices}) is computed at
    most once and handed to the division. The combined rewrite runs only
    when both sets are non-empty: without a phase-false SOS cube its
    second division cannot divide. When [d] is not yet a fanin of [f],
    the region floor {!Logic_network.Lit_floor.pos} reaches [f]'s
    factored count and {!Basic_division.exact_region} holds, no
    division runs: none could pay. That figure is computed at most
    once, when a phase first has an SOS set, and each blocked unit is
    tallied in [counters]' [floor_rejects]. [sigs] must belong to the
    network; they gate each phase. *)

