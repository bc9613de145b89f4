(** Stuck-at faults on the wires of an SOP-node network, and
    implication-based redundancy identification.

    A {e wire} in the paper's sense is either a literal's connection into a
    cube (an input of one of the virtual AND gates) or a cube's connection
    into its node (an input of the virtual OR gate). A wire is removable
    when the corresponding stuck-at fault (stuck at the non-controlling
    value) is untestable; untestability is proven conservatively by
    deriving a conflict from the fault's mandatory assignments — exactly
    the mechanism of the paper's Section III example. *)

type wire =
  | Literal_wire of {
      node : Logic_network.Network.node_id;
      cube : int; (* index in Cover.cubes order *)
      lit : Twolevel.Literal.t; (* literal over the node's fanin variables *)
    }  (** Removable when its stuck-at-1 fault is untestable. *)
  | Cube_wire of { node : Logic_network.Network.node_id; cube : int }
      (** Removable when its stuck-at-0 fault is untestable. *)

val all_wires : Logic_network.Network.t -> Logic_network.Network.node_id -> wire list
(** Every literal and cube wire of one node. *)

val wire_to_string : Logic_network.Network.t -> wire -> string

type assignment =
  | Node of Logic_network.Network.node_id * bool
  | Cube of Logic_network.Network.node_id * int * bool

val assign : Imply.t -> assignment -> unit
(** Assert one assignment on the engine ({!Imply.assign_node} or
    {!Imply.assign_cube}) and propagate. @raise Imply.Conflict *)

val activation_assignments : Logic_network.Network.t -> wire -> assignment list
(** Mandatory assignments to excite the fault and push its effect through
    the faulty node's own OR structure: the tested literal at its faulty
    value, sibling literals at 1, sibling cubes at 0. Equals
    {!local_activation_assignments} followed by
    {!cube_context_assignments} for the wire's cube. *)

val wire_cube : wire -> int
(** Index of the cube the wire lives in. *)

val cube_context_assignments :
  Logic_network.Network.t ->
  node:Logic_network.Network.node_id ->
  cube:int ->
  assignment list
(** The cube-shared slice of activation: the node's other cubes forced
    to 0. Identical for every wire of the same cube, so callers using
    {!Imply.checkpoint} assert it once per cube. *)

val local_activation_assignments :
  Logic_network.Network.t -> wire -> assignment list
(** The wire-specific slice of activation: the tested literal at its
    faulty value plus its sibling literals (or the tested cube at 1). *)

val dominators :
  Logic_network.Network.t ->
  Logic_network.Network.node_id ->
  Logic_network.Network.node_id list
(** Nodes (other than the argument) through which every path from the
    argument to any primary output passes, in topological order. *)

val propagation_assignments :
  Logic_network.Network.t -> Logic_network.Network.node_id -> assignment list
(** Mandatory side-input values at AND-like / OR-like dominator nodes
    (non-controlling values), skipping side inputs inside the fault's
    transitive fanout and complex-gate dominators (no unique requirement). *)

val inject : Logic_network.Network.t -> wire -> Logic_network.Network.t
(** A copy of the network with the wire's stuck-at fault in effect: the
    literal permanently 1 inside its cube (literal wires) or the cube
    permanently 0 (cube wires). A wire is truly redundant iff the injected
    network is equivalent to the original — the exact (exponential)
    reference against which {!redundant} is conservative. *)

val find_test : Logic_network.Network.t -> wire -> (string * bool) list option
(** A test vector (input name, value) detecting the wire's stuck-at fault,
    or [None] when the fault is untestable or no test was found within the
    equivalence checker's budget (exhaustive for small input counts). *)

val redundant_result :
  ?learn_depth:int ->
  ?region:Logic_network.Network.node_id list ->
  ?budget:Rar_util.Budget.t ->
  ?counters:Rar_util.Counters.t ->
  ?dc:Logic_network.Dont_care.t ->
  ?extra:assignment list ->
  Logic_network.Network.t ->
  wire ->
  (bool, Rar_util.Budget.reason) result
(** [redundant_result net w] is [Ok true] when the stuck-at fault of wire
    [w] is proven untestable: the mandatory assignments (activation and
    dominator propagation) plus [extra]
    assumptions produce an implication conflict. [learn_depth] (default 0)
    enables recursive learning. One-sided: [Ok false] means "not proven".
    [Error reason] means the [budget] (default unlimited, charged per
    implication step) ran out before the test concluded — the wire must be
    treated as not-proven-redundant, and the caller decides whether to
    degrade or abort.

    [dc] supplies external don't cares to the implication engine (EXCDC
    patterns become forbidden assignments, so more faults prove
    untestable — a wire only exercised by externally-impossible
    patterns is redundant in context).

    Each call builds its own arena over [region] (counted as an
    [imply_creates] in [counters]); a build costs O(region), so there
    is nothing to pool. *)

val redundant :
  ?learn_depth:int ->
  ?region:Logic_network.Network.node_id list ->
  ?budget:Rar_util.Budget.t ->
  ?counters:Rar_util.Counters.t ->
  ?dc:Logic_network.Dont_care.t ->
  ?extra:assignment list ->
  Logic_network.Network.t ->
  wire ->
  bool
(** {!redundant_result} collapsed to a bool: budget exhaustion maps to
    [false] ("not proven redundant") — always safe, never unsound, since
    redundancy claims are one-sided. *)
