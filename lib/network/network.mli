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

    Incremental analyses (simulation signatures, transitive-fanin caches,
    ...) key their invalidation on the network's revision counter or
    subscribe to fine-grained mutation events. Every structural mutation —
    node addition, function replacement, node removal, or a wholesale
    {!overwrite} — bumps the revision and notifies the observers.
    {!retarget_outputs} changes neither node functions nor the DAG, so it
    is deliberately not a tracked mutation. *)

type mutation =
  | Node_added of node_id
  | Function_changed of node_id  (** fanins and/or cover replaced *)
  | Node_removed of node_id
  | Rebuilt  (** the whole network was replaced by {!overwrite} *)

type observer_id

val revision : t -> int
(** Monotonically increasing mutation counter (0 for a fresh network).
    Copies made with {!copy} restart at 0 and have no observers. *)

val on_mutation : t -> (mutation -> unit) -> observer_id
(** Subscribe to mutation events; the callback runs synchronously after
    the mutation is applied. Keep callbacks cheap (set a dirty bit, do the
    real work lazily). *)

val remove_observer : t -> observer_id -> unit
(** Unsubscribe; unknown ids are ignored. *)

(** {1 Construction} *)

val create : unit -> t

val add_input : t -> string -> node_id

val add_logic : t -> ?name:string -> fanins:node_id array -> Twolevel.Cover.t -> node_id
(** Add a logic node. Duplicate fanins are merged and fanins whose variable
    does not occur in the cover are dropped (the cover is remapped
    accordingly). All referenced nodes must already exist. *)

val add_output : t -> string -> node_id -> unit
(** Mark a node as driving a primary output of the given name. *)

val retarget_outputs : t -> from_node:node_id -> to_node:node_id -> unit
(** Redirect every primary output driven by [from_node] to [to_node]
    (used when merging functionally identical nodes). *)

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
(** Exclusive upper bound of the node ids allocated so far. Ids are never
    recycled, so [id_limit] only grows; the difference between two
    readings counts the ids consumed in between (including ids of nodes
    that were created and removed again). *)

val copy : t -> t
(** Deep copy preserving node ids (and the id allocator position). Costs
    O({!id_limit}), not O(nodes): the copy's id-indexed store spans
    every id ever allocated. *)

val overwrite : t -> t -> unit
(** [overwrite dst src] makes [dst] structurally identical to [src]
    (deep-copying [src]'s state). Supports try-on-a-copy / commit
    workflows in the optimisation drivers. *)

(** {1 Queries} *)

val mem : t -> node_id -> bool

val is_input : t -> node_id -> bool

val name : t -> node_id -> string

val find_by_name : t -> string -> node_id option

val fresh_name : t -> string -> string
(** [fresh_name t base] is [base] when no node carries that name, else
    the first of [base_2], [base_3], ... that is free. Node names are
    not otherwise enforced unique, but the BLIF writer emits one table
    per name — call this at any site that synthesises a name which may
    repeat (divisor cores). Each probe scans the node table. *)

val fanins : t -> node_id -> node_id array
(** Empty for inputs and constants. *)

val cover : t -> node_id -> Twolevel.Cover.t
(** @raise Invalid_argument on a primary input. *)

val fanouts : t -> node_id -> node_id list

val fanout_count : t -> node_id -> int

val is_output : t -> node_id -> bool

val output_names : t -> node_id -> string list

val inputs : t -> node_id list
(** In creation order. *)

val outputs : t -> (string * node_id) list
(** In creation order. *)

val node_ids : t -> node_id list

val logic_ids : t -> node_id list

val node_count : t -> int

val topological : t -> node_id list
(** All nodes, fanins before fanouts. *)

val transitive_fanin : t -> node_id list -> Node_set.t
(** Includes the seed nodes. *)

val transitive_fanout : t -> node_id list -> Node_set.t
(** Includes the seed nodes. *)

val depends_on : t -> node_id -> node_id -> bool
(** [depends_on t n m] iff [m] is in the transitive fanin of [n]. The
    search stops as soon as it meets [m]. *)

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

val eval_outputs : t -> (node_id -> bool) -> (string * bool) list

(** {1 Invariants and printing} *)

val check : t -> unit
(** Validate all structural invariants (link symmetry, distinct fanins
    each named by the cover, cover support within fanins, acyclicity,
    outputs exist). @raise Failure with a diagnostic
    when an invariant is broken. *)

val to_string : t -> string
(** Multi-line dump: one line per node, SIS-like. *)
