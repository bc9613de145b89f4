(** Vote tables for extended division (Section IV, Table I of the paper).

    Every literal wire of the dividend runs its stuck-at-1 implication pass
    {e without} any divisor constraint. The divisor-pool cubes that end up
    implied to 0 form the wire's {e candidate core divisor}: choosing any
    core divisor inside that set would make the wire's fault conflict (the
    bold AND needs the core divisor at 1). The per-wire SOS validity filter
    keeps only wires whose cube would actually land in the [f1] region of
    such a core divisor. *)

type pool_cube = Logic_network.Network.node_id * int
(** A cube of a pool node, identified by (node, cube index). *)

type entry = {
  wire : Atpg.Fault.wire;  (** always a [Literal_wire] of the dividend *)
  wire_cube : Twolevel.Cube.t;
      (** the dividend cube holding the wire, lifted ({!Logic_network.Lift}) *)
  candidates : pool_cube list;  (** pool cubes implied to 0 *)
  valid : bool;  (** passes the SOS filter (Table I(a) → I(b)) *)
  conflicted : bool;
      (** the activation alone conflicted: the wire is removable with no
          divisor at all *)
}

val lifter : Logic_network.Network.t -> pool_cube -> Twolevel.Cube.t
(** [lifter net] lifts pool cubes of [net] ({!Logic_network.Lift.cube}),
    each pool node's cubes at most once. Valid while [net] is unchanged. *)

val collect :
  ?gdc:bool ->
  ?learn_depth:int ->
  ?budget:Rar_util.Budget.t ->
  ?counters:Rar_util.Counters.t ->
  ?dc:Logic_network.Dont_care.t ->
  Logic_network.Network.t ->
  f:Logic_network.Network.node_id ->
  pool:Logic_network.Network.node_id list ->
  entry list
(** One entry per literal wire of [f] (pool nodes on which [f] depends
    are excluded from candidate sets automatically). [budget] bounds the
    implication work across the whole table; on exhaustion the affected
    wires get empty candidate sets (the table is truncated, never wrong)
    and a [degradations] is tallied in [counters]. [dc] makes the shared
    arena treat EXCDC patterns as forbidden assignments, which can only
    enlarge candidate sets (more implications fire). *)

val valid_entries : entry list -> entry list
(** Entries with [valid] and a non-empty candidate set (Table I(b)). *)

val pool_cube_to_string : Logic_network.Network.t -> pool_cube -> string

val table_to_string :
  Logic_network.Network.t -> entry list -> string
(** Render in the style of the paper's Table I. *)
