(** Multilevel Boolean networks in the SIS style.

    A network is a DAG of nodes. Each {e logic} node carries a
    sum-of-products cover whose variable [i] denotes the node's [i]-th
    fanin; both phases of a fanin may appear, so inverters are implicit in
    the covers. Primary inputs are nodes without a function; primary
    outputs are named references to nodes. Constants are logic nodes with
    an empty fanin list and cover 0 or 1.

    This native representation {e is} the paper's "decompose each node's
    internal sum-of-product form into two-level AND and OR gates": a node's
    cubes play the role of the AND gates and the node itself of the OR
    gate, so the division algorithms address wires as
    (node, cube index, literal) triples without materialising gates. *)

type t

type node_id = int

module Node_set : Set.S with type elt = node_id

exception Cyclic of string
(** Raised by {!check} and {!topological} when the DAG invariant breaks. *)

(** {1 Mutation tracking}

    Incremental analyses (simulation signatures, implication arenas,
    ...) key their invalidation on the network's revision counter or
    subscribe to fine-grained mutation events. Every structural mutation —
    node addition, function replacement, node removal — bumps the
    revision and notifies the observers, except inside an {!attempt},
    which holds the notifications until it commits. *)

type mutation =
  | Node_added of node_id
  | Function_changed of node_id  (** fanins and/or cover replaced *)
  | Node_removed of node_id

type observer_id

val revision : t -> int
(** Monotonically increasing mutation counter (0 for a fresh network):
    it rises on every mutation, inside an attempt too, and on every
    rollback. Copies made with {!copy} restart at 0 and have no
    observers. *)

val on_mutation : t -> (mutation -> unit) -> observer_id
(** Subscribe to mutation events; the callback runs synchronously after
    the mutation is applied, or, inside an attempt, when the outermost
    attempt commits. Keep callbacks cheap (set a dirty bit, do the real
    work lazily). *)

val remove_observer : t -> observer_id -> unit
(** Unsubscribe; unknown ids are ignored. *)

(** {1 Attempts: the one way to try a multi-step rewrite (DESIGN §21)} *)

val attempt : t -> (unit -> 'a option) -> 'a option
(** [attempt t f] runs [f] and keeps its mutations when it returns
    [Some]. When it returns [None] or raises, every mutation it made is
    undone, the id allocator included, and the exception is re-raised.
    Attempts nest. Observers hear nothing until the outermost attempt
    commits, and then its mutations in order. *)

val in_attempt : t -> bool
(** An attempt is open. *)

val attempt_changes : t -> (node_id * Twolevel.Cover.t option) list
(** Each node the innermost open attempt has changed or added, once,
    with its cover when that attempt opened ([None] for an input or an
    added node); an unreplaced cover is physically the node's own.
    @raise Invalid_argument outside an attempt. *)

(** {1 Construction} *)

val create : unit -> t

val add_input : t -> string -> node_id

val add_logic : t -> ?name:string -> fanins:node_id array -> Twolevel.Cover.t -> node_id
(** Add a logic node. Duplicate fanins are merged and fanins whose variable
    does not occur in the cover are dropped (the cover is remapped
    accordingly). All referenced nodes must already exist. *)

val add_output : t -> string -> node_id -> unit
(** Mark a node as driving a primary output of the given name. *)

val normalise :
  fanins:node_id array -> cover:Twolevel.Cover.t ->
  node_id array * Twolevel.Cover.t
(** The fanins and cover {!add_logic} and {!set_function} store for the
    given ones: duplicate fanins merged (cubes this makes contradictory
    dropped), then every fanin the resulting cover does not name
    dropped, the variables renumbered to the kept fanins' positions. A
    pair that is already normal comes back with its cover physically
    unchanged. *)

val set_function : t -> node_id -> fanins:node_id array -> Twolevel.Cover.t -> unit
(** Replace a logic node's fanins and cover (same normalisation as
    {!add_logic}); fanout links are maintained. The node must be a logic
    node and the new fanins must not create a cycle. *)

val remove_node : t -> node_id -> unit
(** Remove a fanout-free, non-output logic node. *)

val id_limit : t -> int
(** Exclusive upper bound of the node ids allocated so far. A removal
    does not recycle its id, so outside attempts [id_limit] only grows;
    a rolled-back {!attempt} returns it to its value when the attempt
    opened. *)

val copy : t -> t
(** Deep copy preserving node ids, the id allocator position and so the
    {!node_ids} order. One map over the id-indexed store: it costs
    O({!id_limit}), not O(nodes). The copy has no open attempt. *)

(** {1 Queries} *)

val mem : t -> node_id -> bool

val is_input : t -> node_id -> bool

val name : t -> node_id -> string

val find_by_name : t -> string -> node_id option
(** The first node in {!node_ids} order (the newest) carrying the name,
    found by a scan of every id. *)

val find_input : t -> string -> node_id option
(** The primary input carrying the name, read from the input list: it
    costs O(inputs), where {!find_by_name} scans every id. *)

val fresh_name : t -> string -> string
(** [fresh_name t base] is [base] when no node carries that name, else
    the first of [base_2], [base_3], ... that is free. Node names are
    not otherwise enforced unique, but the BLIF writer emits one table
    per name — call this at any site that synthesises a name which may
    repeat (divisor cores). Each probe is a {!find_by_name}. *)

val fanins : t -> node_id -> node_id array
(** Empty for inputs and constants. *)

val cover : t -> node_id -> Twolevel.Cover.t
(** @raise Invalid_argument on a primary input. *)

val fanouts : t -> node_id -> node_id list

val fanout_count : t -> node_id -> int

val is_output : t -> node_id -> bool

val inputs : t -> node_id list
(** In creation order. *)

val outputs : t -> (string * node_id) list
(** In creation order. *)

val node_ids : t -> node_id list
(** Every node, in descending id order: newest first. The optimisers
    visit dividends, divisors and wires in this order or its reverse,
    and their stable sorts keep it among ties, so it is part of their
    output. Removals and {!set_function} leave the survivors' order
    alone, {!copy} keeps it, and a rolled-back {!attempt} restores
    it. *)

val logic_ids : t -> node_id list
(** {!node_ids} without the primary inputs. *)

val node_count : t -> int
(** [List.length (node_ids t)], kept as a counter. *)

val topological : t -> node_id list
(** All nodes, fanins before fanouts. *)

val transitive_fanin : t -> node_id list -> Node_set.t
(** Includes the seed nodes. *)

val transitive_fanout : t -> node_id list -> Node_set.t
(** Includes the seed nodes. *)

val depends_on : t -> node_id -> node_id -> bool
(** [depends_on t n m] iff [m] is in the transitive fanin of [n]. The
    search stops as soon as it meets [m]. *)

(** {2 Cone stamps}

    A reusable id-indexed stamp array for drivers that walk cones per
    dividend: marking costs the cone's size, clearing is O(1), and a
    cone grows with the network it walks, so one serves a whole run. *)

type cone

val cone : t -> cone
(** An empty cone. *)

val clear : cone -> unit

val mark_fanin : t -> cone -> node_id list -> node_id list
(** Add the transitive fanin of the seeds (seeds included), and return
    the nodes no fanin walk since the last {!clear} had reached. *)

val mark_fanout : t -> cone -> node_id list -> node_id list
(** The same over fanouts. A node that only a fanin walk reached is
    still expanded, so marking TFI(f), then the fanout of the nodes
    that walk returned, leaves TFO(TFI(f)) in the cone. *)

val in_cone : cone -> node_id -> bool

val fanout_cone_order : t -> node_id list -> node_id list
(** The transitive fanout of the seeds (seeds included), fanins before
    fanouts: a topological order of the cone, found without visiting
    the rest of the network. It need not agree with {!topological}
    restricted to the cone; use it where any topological order serves.
    @raise Invalid_argument on an unknown seed. *)

(** {1 Evaluation} *)

val eval : t -> (node_id -> bool) -> (node_id -> bool)
(** [eval t input_assignment] evaluates the whole network once and returns
    a total valuation of the nodes. The assignment is consulted for primary
    inputs only. *)

(** {1 Invariants and printing} *)

val check : t -> unit
(** Validate all structural invariants (link symmetry, distinct fanins
    each named by the cover, cover support within fanins, acyclicity,
    outputs exist). @raise Failure with a diagnostic
    when an invariant is broken. *)

val to_string : t -> string
(** Multi-line dump: one line per node, SIS-like. *)
