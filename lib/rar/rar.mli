(** Classic redundancy addition and removal (Section II of the paper).

    One candidate connection is tentatively added at a time; the addition
    is kept only when (a) the added wire is itself redundant — so the
    circuit function is unchanged — and (b) the redundancies it creates
    elsewhere remove more literals than the addition cost. This is the
    technique of Entrena–Cheng and Chang–Marek-Sadowska that the paper
    generalises; it is provided both as a baseline optimisation pass and to
    reproduce the paper's Fig. 1 walkthrough. *)

type stats = {
  additions_tried : int;
  additions_kept : int;
  wires_removed : int;
  literals_saved : int;
}

val try_add_wire :
  Logic_network.Network.t ->
  node:Logic_network.Network.node_id ->
  cube:int ->
  source:Logic_network.Network.node_id ->
  phase:bool ->
  bool
(** Tentatively AND the literal [source^phase] into the given cube, as a
    {!Logic_network.Network.attempt}: returns [true] and keeps the wire
    if it is redundant (the stuck-at-1 test of the new wire conflicts),
    otherwise rolls back and returns [false]. *)

val optimize :
  ?max_sources_per_node:int ->
  Logic_network.Network.t ->
  stats
(** Greedy one-wire-at-a-time RAR over the whole network: for every node
    cube and a bounded set of candidate source nodes, add a redundant
    connection, run redundancy removal in the neighbourhood, and keep the
    attempt only on positive literal gain
    ({!Logic_network.Lit_count.attempt_gain}). *)
