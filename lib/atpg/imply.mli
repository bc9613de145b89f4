(** Three-valued implication engine over SOP-node networks.

    Works at the paper's granularity: every node is conceptually a
    two-level OR-of-AND structure, so value assignments exist both for
    nodes (the OR outputs) and for individual cubes (the AND outputs).
    Forward rules evaluate cubes from fanin values and nodes from cube
    values; backward rules justify forced assignments (an OR at 1 with one
    live cube, an AND at 0 with one free literal, ...). A {e conflict} —
    deriving both 0 and 1 for the same object — proves the assumed
    situation impossible; the redundancy analyses in {!Fault} rely on
    exactly this.

    Two scoping knobs mirror the paper's configurations:
    {ul
    {- [region]: implications are only {e computed through} the listed
       nodes (values may still be recorded anywhere). The paper's non-GDC
       configurations confine implications to the dividend/divisor
       region; leaving it out gives the global ("GDC") behaviour.}
    {- [frozen]: nodes whose value must never be derived or propagated —
       the fault-effect-carrying nodes of a stuck-at test, whose good and
       faulty values differ. Given as a list of ids (typically
       {!Logic_network.Network.fanout_cone_order} of the faulty node) and
       kept as per-slot marks.}}

    The engine is an {e arena}: values live in dense arrays indexed by a
    node-id→slot table and every assignment is logged on an undo trail, so
    one engine per (network, region) is created once and {!reset} between
    redundancy tests in O(assignments) rather than rebuilt in O(network).
    The propagation queue is a FIFO ring buffer, giving stable levelized
    implication order. A build slots the region, the region's fanins and
    the inputs EXCDC cubes name, and resolves region cube literals,
    region membership, frozen marks and region fanouts to slots, so
    propagation never consults the network. Any other node gets a slot
    when an assignment first names it; a build costs O(region), not
    O(network). The arena follows a mutation of the network one way: it
    goes stale, and the next {!reset} rebuilds it. *)

type t

exception Conflict of string

val create :
  ?region:Logic_network.Network.node_id list ->
  ?frozen:Logic_network.Network.node_id list ->
  ?budget:Rar_util.Budget.t ->
  ?counters:Rar_util.Counters.t ->
  ?dc:Logic_network.Dont_care.t ->
  Logic_network.Network.t ->
  t
(** Build an arena over the network's current structure. [region] may
    repeat ids and name ids the network lacks; those are ignored.
    Without it every node is in the region. Counted as an
    [imply_creates] in [counters] (as is every structural rebuild a later
    {!reset} performs). [budget] (default {!Rar_util.Budget.unlimited})
    is charged one unit per propagation step; when it runs out,
    {!Rar_util.Budget.Exhausted} escapes from {!assign_node} /
    {!assign_cube} / {!learn}. The engine stays consistent — {!reset}
    rewinds the partial propagation like any other abandoned test.

    [dc] supplies external controllability don't cares: each EXCDC cube
    is a forbidden input pattern, treated as the clause ¬(cube). When an
    input assignment completes a forbidden pattern the engine raises
    {!Conflict} (the environment never produces that pattern, so the
    assumed situation is externally untestable); when exactly one input
    of a cube is free and every other literal holds, the free input is
    implied to the opposite phase. Cubes naming signals that are not
    primary inputs of this network are dropped (sound), and a view with
    no cube left changes nothing. Every build binds the view to the
    network's inputs again ({!Logic_network.Dont_care.bind}). *)

val set_budget : t -> Rar_util.Budget.t -> unit
(** Replace the engine's budget (an engine reused across fault tests
    gets a fresh budget per test; installing
    {!Rar_util.Budget.unlimited} clears a stale one). *)

val reset : ?frozen:Logic_network.Network.node_id list -> t -> unit
(** Return the engine to its post-{!create} state, optionally installing a
    new [frozen] set (the fault-carrying set differs per fault; the
    [region] is fixed at creation, and a rebuild slots its members that
    are in the network then). When the underlying network has
    mutated since the arena was built, the structure is rebuilt (counted
    as [imply_creates]); otherwise the undo trail is rewound in
    O(assignments + frozen) (counted as [imply_resets]). *)

val assign_node : t -> Logic_network.Network.node_id -> bool -> unit
(** Assume a node value and propagate to fixpoint. @raise Conflict *)

val propagate : t -> unit
(** Drain the pending implication queue to fixpoint (the constants'
    fanouts are left pending after {!create}/{!reset}; callers that want
    a {!checkpoint} right after a reset must drain them first).
    @raise Conflict *)

type mark
(** A position on the undo trail (see {!checkpoint}). *)

val checkpoint : t -> mark
(** Capture the current trail position so a caller can assert a shared
    context once and branch per sub-case by popping back, instead of a
    full {!reset} + replay per sub-case. The implication queue must be
    empty (propagation at fixpoint) — otherwise the queued work would be
    double-counted by every branch; raises [Invalid_argument] if not.
    Marks obey a stack discipline: popping to a mark invalidates any
    mark taken above it. *)

val pop_to : t -> mark -> bool
(** Rewind the trail to the mark, erasing every assignment made above it
    and flushing whatever an aborted propagation (conflict, exhausted
    budget) left queued. Returns [false] — leaving the engine untouched
    — when the mark is stale: a {!reset} or structural rebuild happened
    after {!checkpoint}, or the underlying network has mutated (the
    caller should rebuild its context via {!reset}). Counted as an
    [imply_checkpoints] in the engine's counters. *)

val assign_cube : t -> Logic_network.Network.node_id -> int -> bool -> unit
(** Assume a value for the [i]-th cube (in {!Twolevel.Cover.cubes} order)
    of a node and propagate. @raise Conflict *)

val node_value : t -> Logic_network.Network.node_id -> bool option

val cube_value : t -> Logic_network.Network.node_id -> int -> bool option

val learn : ?max_options:int -> depth:int -> t -> unit
(** Depth-bounded recursive learning (Kunz–Pradhan): for each unjustified
    forced value, try every justification option in a scratch copy; if all
    options conflict, raise {!Conflict}; otherwise assert the assignments
    common to every option. Iterates until no new assignment is learnt.
    [max_options] bounds the fanout of each case split (default 4).
    @raise Conflict *)
