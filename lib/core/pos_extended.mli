(** Extended division in product-of-sums form.

    The paper closes Section IV by noting the whole extended-division
    machinery dualises: work on sum terms instead of cubes and on
    implication value 1 instead of 0. Because a POS of [f] is an SOP of
    [f'], this module realises the dual by literally running the SOP
    machinery ({!Vote}, {!Clique}, {!Basic_division} via
    {!Extended_division.try_run}) on a scratch {e complement-domain}
    network — one fresh input per real signal, the complemented covers of
    the dividend and the divisor pool as nodes — and mapping the committed
    result back through De Morgan:

    {v
      f' = q·core + r          (complement domain)
      f  = (q̂ + ĉore)·r̂        (real domain, x̂ = complement)
      d' = core + rest   ⇒   d = ĉore·r̂est   (divisor decomposition)
    v}

    Complement-domain nodes map to real nodes with inverted phase; the
    real core becomes a genuine shared node. The rewrite commits only on
    positive real-network factored-literal gain. *)

type outcome = {
  core_sum_terms : int;  (** sum terms in the chosen core divisor *)
  decomposed_divisor : bool;
  literal_gain : int;
}

val try_run :
  ?counters:Rar_util.Counters.t ->
  Logic_network.Network.t ->
  f:Logic_network.Network.node_id ->
  pool:Logic_network.Network.node_id list ->
  outcome option
(** Attempt one POS extended division of [f] against the pool; mutates the
    network only on positive gain; an attempt whose complement (any taken
    along the way) exceeds 64 cubes gives up. [counters] receives the
    complement-domain division's [floor_rejects]; its other tallies stay
    private to the attempt. *)
