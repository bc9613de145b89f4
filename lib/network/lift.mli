(** Node covers lifted into the global node-id variable space.

    A node's cover speaks about its private fanin slots. To compare logic
    {e across} nodes — the SOS containment test, extended division's
    validity filter, algebraic resubstitution, common cube and kernel
    extraction — a cover is rewritten so that variable [i] denotes the
    network node with id [i]; covers of different nodes then share one
    variable space and the two-level algebra applies directly. This is
    the only code that converts between the two forms.

    {!Network.normalise} keeps a node's fanins distinct, so a lifted cube
    never holds both phases of a signal: it is an ordinary
    {!Twolevel.Cube.t}, and containment, disjointness ([distance > 0]) and
    printing ([to_string ~names:(Network.name net)]) are the cube's own. *)

val cube : Network.t -> Network.node_id -> Twolevel.Cube.t -> Twolevel.Cube.t
(** [cube net id c] lifts [c], a cube over [id]'s fanin slots. *)

val cubes : Network.t -> Network.node_id -> Twolevel.Cube.t list
(** Every cube of a node, lifted, in {!Twolevel.Cover.cubes} order of the
    node's own cover, so the [i]-th lifted cube is the node's cube [i]. *)

val cover : Network.t -> Network.node_id -> Twolevel.Cover.t
(** A node's cover with fanin variables replaced by node ids. *)

val set_cover : Network.t -> Network.node_id -> Twolevel.Cover.t -> unit
(** Install a lifted cover back onto a node: the sorted support node ids
    become the fanins. @raise Network.Cyclic on cyclic rewrites. *)

val set_function_if_cheaper :
  Network.t ->
  Network.node_id ->
  below:int ->
  fanins:Network.node_id array ->
  Twolevel.Cover.t ->
  bool
(** {!Network.set_function} iff the factored literal count of the cover
    the node would store is below [below] and the rewrite is acyclic.
    The count is taken before anything mutates, so [false] leaves the
    network, its revision included, untouched: a single-node decision
    needs no {!Network.attempt}. *)

val set_cover_if_cheaper :
  Network.t -> Network.node_id -> below:int -> Twolevel.Cover.t -> bool
(** {!set_function_if_cheaper} on a lifted cover, stored as
    {!set_cover} stores it. *)

val add : Network.t -> ?name:string -> Twolevel.Cover.t -> Network.node_id
(** Create a logic node computing a lifted cover, over its sorted support
    node ids as fanins. *)

(** {2 Between two nodes' fanin slots}

    Comparing two nodes' cubes needs no node-id space: [src]'s cubes can
    be carried into [dst]'s fanin slots. Fanins are distinct, so the map
    is injective. A lifted cube of [src] that names a node outside
    [dst]'s fanins contains no lifted cube of [dst], and a literal on
    such a node opposes no literal of [dst]. *)

val slot_map :
  Network.t -> src:Network.node_id -> dst:Network.node_id -> int array
(** For each fanin slot of [src], the slot of the same node among
    [dst]'s fanins, or [-1]. *)

val carry : int array -> Twolevel.Cube.t -> Twolevel.Cube.t option
(** [carry map k] is [k], a cube over [src]'s slots, renamed into
    [dst]'s slots when every literal maps, and [None] otherwise. A cube
    [c] of [dst] has its lifted form contained in [k]'s exactly when
    [carry map k = Some k'] and [Cube.contained_by c k']. *)

val opposes : int array -> into:Twolevel.Cube.t -> Twolevel.Cube.t -> bool
(** [opposes map ~into:c k]: some literal of [k] (over [src]'s slots)
    opposes a literal of [c] (over [dst]'s slots), i.e. the lifted cubes
    are at distance [> 0]. *)
