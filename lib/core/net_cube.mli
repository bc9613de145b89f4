(** Cubes of network nodes lifted into the global signal space.

    A node's cover speaks about its private fanin variables; to compare
    cubes of {e different} nodes (the containment tests at the heart of the
    SOS relation and of extended division's validity filter) each cube is
    lifted to a set of (fanin node id, phase) pairs, packed as a
    {!Twolevel.Cube_kernel} bitvector so containment is a word-parallel
    subset test. *)

type t
(** A product of network signals; duplicate-free, packed. *)

val of_node_cube :
  Logic_network.Network.t -> Logic_network.Network.node_id -> Twolevel.Cube.t -> t

val of_node : Logic_network.Network.t -> Logic_network.Network.node_id -> t list
(** Every cube of a node, lifted, in {!Twolevel.Cover.cubes} order. *)

val of_cube_index :
  Logic_network.Network.t -> Logic_network.Network.node_id -> int -> t
(** Lift the [i]-th cube ({!Twolevel.Cover.cubes} order) of a node. *)

val contained_by : t -> t -> bool
(** Same convention as {!Twolevel.Cube.contained_by}: [contained_by c k]
    iff onset(c) ⊆ onset(k), i.e. [k]'s signal literals all appear in
    [c]. *)

val disjoint : t -> t -> bool
(** Some node appears in [a] and [b] with opposite phases, so the two
    products share no minterm. *)

val signals : t -> (Logic_network.Network.node_id * bool) list

val compare : t -> t -> int

val equal : t -> t -> bool

val to_string : Logic_network.Network.t -> t -> string
