(** Node composition and the SIS [eliminate] command.

    [eliminate] collapses low-value internal nodes into their fanouts so
    that substitution later sees "complex gates" — the first step of all of
    the paper's starting scripts. *)

val collapse_into_fanouts :
  ?cube_limit:int -> Network.t -> Network.node_id -> bool
(** Substitute a node into all of its fanouts — every occurrence of it
    inside a fanout's cover is replaced by its own function (Shannon
    composition [F = F₁·G + F₀·G']) — and delete it. Returns [false]
    (leaving the network unchanged) if any composition or the needed
    complement exceeds [cube_limit] cubes (default 512), or the node
    drives a primary output. *)

val value : Network.t -> Network.node_id -> int option
(** The eliminate value of a node: the increase in flat literal count that
    collapsing it into all fanouts would cause (negative = shrink). [None]
    when the node cannot be collapsed (output, input, or blow-up). *)

val eliminate : ?threshold:int -> Network.t -> int
(** Repeatedly collapse the node of smallest value while some node's value
    is [<= threshold] (default 0, as in the paper's scripts); of equal
    values, the highest id (first in {!Network.logic_ids}) goes first. Returns
    the number of nodes eliminated. A collapse re-values only the nodes
    whose value it can change: the collapsed node's fanouts, its fanins
    and the fanouts' fanins. *)
