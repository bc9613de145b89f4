(** Extended Boolean division: the divisor side may be decomposed
    (Section IV of the paper).

    Pipeline for one dividend [f] against a pool of candidate divisor
    nodes:

    + build the vote table ({!Vote.collect}) and filter it;
    + pick the core divisor by maximal clique over the vote intersection
      graph ({!Clique.best_core});
    + expose the core divisor as a node: when its cubes all come from one
      pool node [m], [m] is {e decomposed} into [m = core + rest] so the
      logic is shared; when they span several nodes (the paper's
      generalisation at the end of Section IV) a new node duplicates the
      chosen cubes;
    + run basic division of [f] by the core node;
    + commit only if the whole operation saves factored literals
      (the paper's locally greedy positive-gain policy), otherwise undo.
*)

type outcome = {
  core_cubes : int;  (** cubes in the chosen core divisor *)
  core_sources : int;  (** distinct pool nodes contributing cubes *)
  expected_removals : int;  (** clique size: wires expected to fall *)
  decomposed_divisor : bool;
      (** true when a source node was split into core + rest *)
  literal_gain : int;  (** total factored-literal gain, net of any new node *)
}

val may_vote :
  Logic_network.Network.t ->
  f:Logic_network.Network.node_id ->
  pool:Logic_network.Network.node_id list ->
  bool
(** Some lifted cube of [f] is contained in some lifted cube of a pool
    node other than [f] and the inputs. {!Vote.collect} marks an entry
    valid only when a candidate pool cube contains the wire's cube, so
    without such a pair {!Vote.valid_entries} is empty and {!try_run}
    cannot succeed. The test runs in [f]'s fanin slots
    ({!Logic_network.Lift.carry}). {!try_run} checks this first, before
    it runs any implication; it copies the network only once the clique
    search has chosen a core. *)

val try_run :
  ?gdc:bool ->
  ?learn_depth:int ->
  ?budget:Rar_util.Budget.t ->
  ?counters:Rar_util.Counters.t ->
  ?dc:Logic_network.Dont_care.t ->
  Logic_network.Network.t ->
  f:Logic_network.Network.node_id ->
  pool:Logic_network.Network.node_id list ->
  outcome option
(** Attempt one extended division of [f]; mutates the network only on
    positive gain. [budget] bounds the implication work of the vote
    table and the removal step; on exhaustion the attempt degrades
    (truncated table, weaker quotient) rather than failing, and the
    positive-gain gate still guards the commit. [dc] threads external
    don't cares into the vote table and the division's removal step
    (results then equivalent modulo the DC view). *)
