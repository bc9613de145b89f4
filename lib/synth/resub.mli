(** Algebraic resubstitution: the SIS [resub -d] baseline of the paper.

    For every node [f] and candidate divisor [d] (and, with
    [use_complement], its complement — the [-d] flag), compute the
    algebraic (weak) quotient of [f] by [d] in the shared variable space;
    when it is non-zero, rewrite [f = q·d + r] and keep the rewrite if it
    lowers the factored literal count. Purely algebraic: none of the
    Boolean identities or don't cares of the main algorithm are used.

    A weak quotient is nonzero only if the dividend's cover names every
    variable the divisor's cover names, and every cover of [d] or of
    its complement names each variable [d] depends on. So a pair whose
    divisor depends on a node outside the dividend's fanins is rejected
    before [d] is lifted or complemented
    ({!Logic_network.Lit_floor.functional_support}); it fails exactly
    as the two divisions would have, and still counts as attempted.

    {!run} always divides by both phases and prunes divisor candidates
    with the simulation-signature filter ({!Logic_sim.Signature},
    {!Logic_sim.Signature.default_words} words): per dividend,
    incompatible divisors are skipped and the rest are ranked by
    signature overlap, keeping the best 32 instead of attempting division
    against every node pair. *)

val try_substitute :
  ?use_complement:bool ->
  Logic_network.Network.t ->
  f:Logic_network.Network.node_id ->
  d:Logic_network.Network.node_id ->
  bool
(** One division attempt, committed on positive factored gain. *)

val run :
  ?sim_seed:int ->
  ?deadline_at:float ->
  ?trace:Rar_util.Trace.t ->
  ?counters:Rar_util.Counters.t ->
  ?dc:Logic_network.Dont_care.t ->
  Logic_network.Network.t ->
  int
(** Returns the number of substitutions committed ([resub -d], at most
    four passes). Pair/division tallies accumulate into [counters] when
    given.

    Dividends are scanned by {!Booldiv.Scheduler}; [sim_seed]
    (default {!Logic_sim.Signature.default_seed}) seeds the signature
    filter.

    [deadline_at] (absolute {!Unix.gettimeofday} instant, polled per
    dividend) stops the remaining work once crossed — committed
    rewrites stand, the cut is tallied as a degradation in [counters]
    and reported on [trace] (default {!Rar_util.Trace.disabled}), which
    also carries a [resub] span and a final counter snapshot.

    [dc] supplies an external don't-care view to the signature filter:
    sampled rows outside the care set are ignored when pruning and
    ranking divisors. The algebraic division itself is DC-blind, so the
    rewrites remain exactly equivalent; a view with no cube over the
    network's inputs leaves the run byte-identical to no view. *)

(** {1 Divisor candidates}

    The divisor table behind {!run}, exposed for tests. *)

type ranking

val ranking : Logic_sim.Signature.t -> Logic_network.Network.t -> ranking
(** An empty table over the network's logic nodes, reading the engine's
    signatures. It stays exact while every mutation of the network is
    an exact algebraic rewrite that adds or removes no node, as every
    commit of {!run} is: then no signature moves, and the engine may be
    detached. *)

val candidates :
  counters:Rar_util.Counters.t ->
  ranking ->
  f:Logic_network.Network.node_id ->
  Logic_network.Network.node_id array
(** The divisors a scan of [f] attempts, in order: the nodes other than
    [f] outside TFO(f) whose signatures pass
    {!Logic_sim.Signature.compatible}, in ascending id stably sorted by
    descending {!Logic_sim.Signature.score}, at most 32. Each node
    other than [f] counts as a considered pair, and each one left out
    (in TFO(f) or incompatible) as a filtered one. The compatibility
    tests run once per dividend and run; the ranking runs again only
    when TFO(f) has changed since the dividend's last scan. *)
