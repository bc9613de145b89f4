(** Implication-based redundancy removal (the "removal" half of RAR).

    Scans wires — literal connections into cubes and cube connections into
    nodes — testing each one's stuck-at fault for untestability via
    {!Atpg.Fault.redundant}, and deletes proven-redundant wires until a
    fixpoint. Deleting a wire can expose new redundancies, so the scan
    restarts after every change. *)

val remove_wire : Logic_network.Network.t -> Atpg.Fault.wire -> unit
(** Delete one wire: a literal wire disappears from its cube (the network
    cover is re-normalised), a cube wire removes the whole cube. *)

val run :
  ?learn_depth:int ->
  ?region:Logic_network.Network.node_id list ->
  ?budget:Rar_util.Budget.t ->
  ?counters:Rar_util.Counters.t ->
  ?dc:Logic_network.Dont_care.t ->
  ?node_filter:(Logic_network.Network.node_id -> bool) ->
  Logic_network.Network.t ->
  int
(** Remove redundant wires everywhere (or on nodes passing [node_filter]);
    returns the number of wires removed. [region] restricts how far the
    implications travel (see {!Atpg.Imply.create}); [node_filter] restricts
    which nodes' wires are tested. [dc] supplies external don't cares to
    the arena: EXCDC patterns become forbidden assignments, so wires only
    testable by externally-impossible patterns also prove redundant. One
    implication arena is built per run and reused (reset) across all wire
    tests; a removal leaves it stale, and the next reset rebuilds it.
    [counters] records the create/reset split.

    [budget] bounds the total implication work of the whole fixpoint.
    When it runs out the scan stops early and the partial result stands
    (every removal was individually proven, so the network is still
    correct — just less minimised). The cut-short run is tallied as a
    [degradations] in [counters]; callers holding the budget can inspect
    {!Rar_util.Budget.exhausted} to learn the reason. *)
