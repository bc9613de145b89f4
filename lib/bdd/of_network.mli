(** Building BDDs for network nodes (global functions over the primary
    inputs). BDD variable [i] is the [i]-th primary input in
    {!Logic_network.Network.inputs} order. *)

val all :
  Bdd.man ->
  Logic_network.Network.t ->
  (Logic_network.Network.node_id, Bdd.t) Hashtbl.t
(** Global functions of every node. *)

val outputs : Bdd.man -> Logic_network.Network.t -> (string * Bdd.t) list

val equivalent : Logic_network.Network.t -> Logic_network.Network.t -> bool
(** Formal combinational equivalence: inputs and outputs matched by name
    (the interfaces must agree). *)
