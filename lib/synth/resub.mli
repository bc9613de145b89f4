(** Algebraic resubstitution: the SIS [resub -d] baseline of the paper.

    For every node [f] and candidate divisor [d] (and, with
    [use_complement], its complement — the [-d] flag), compute the
    algebraic (weak) quotient of [f] by [d] in the shared variable space;
    when it is non-zero, rewrite [f = q·d + r] and keep the rewrite if it
    lowers the factored literal count. Purely algebraic: none of the
    Boolean identities or don't cares of the main algorithm are used.

    By default divisor candidates are pruned with the simulation-signature
    filter ({!Logic_sim.Signature}): per dividend, incompatible divisors
    are skipped and the rest are ranked by signature overlap, keeping the
    best [max_candidates] instead of attempting division against every
    node pair. [use_filter:false] restores the seed's exhaustive
    pair scan for A/B runs. *)

val try_substitute :
  ?use_complement:bool ->
  ?cache:Logic_network.Fanin_cache.t ->
  Logic_network.Network.t ->
  f:Logic_network.Network.node_id ->
  d:Logic_network.Network.node_id ->
  bool
(** One division attempt, committed on positive factored gain. An
    optional {!Logic_network.Fanin_cache} serves the cycle check. *)

val default_max_candidates : int

val run :
  ?use_complement:bool ->
  ?use_filter:bool ->
  ?max_candidates:int ->
  ?max_passes:int ->
  ?sim_seed:int ->
  ?sim_words:int ->
  ?deadline_at:float ->
  ?trace:Rar_util.Trace.t ->
  ?counters:Rar_util.Counters.t ->
  ?dc:Logic_network.Dont_care.t ->
  Logic_network.Network.t ->
  int
(** Returns the number of substitutions committed. [use_complement]
    defaults to [true] (i.e., [resub -d]); [use_filter] to [true];
    [max_candidates] (filtered runs only) to {!default_max_candidates}.
    Pair/division tallies accumulate into [counters] when given.

    Dividends are scanned by {!Booldiv.Scheduler}; [sim_seed]
    (default {!Logic_sim.Signature.default_seed}) seeds the signature
    filter and [sim_words] (default
    {!Logic_sim.Signature.default_words}) sizes its vectors in 64-bit
    words.

    [deadline_at] (absolute {!Unix.gettimeofday} instant, polled per
    dividend) stops the remaining work once crossed — committed
    rewrites stand, the cut is tallied as a degradation in [counters]
    and reported on [trace] (default {!Rar_util.Trace.disabled}), which
    also carries a [resub] span and a final counter snapshot.

    [dc] supplies an external don't-care view to the signature filter:
    sampled rows outside the care set are ignored when pruning and
    ranking divisors. The algebraic division itself is DC-blind, so the
    rewrites remain exactly equivalent; an absent or empty view leaves
    the run byte-identical. *)
