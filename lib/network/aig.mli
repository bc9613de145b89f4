(** Flat int-array And-Inverter Graphs.

    The representation every modern resubstitution exemplar operates on
    (mockturtle's [aig_network]): nodes are consecutive integers, edges
    are {e literals} [2*node + complement], node [0] is the constant
    {e false} (so literal [0] is false and literal [1] is true), primary
    inputs occupy ids [1 .. num_inputs], and every AND node stores its
    two fanin literals in flat arrays. New AND nodes are {e structurally
    hashed}: building [a & b] twice returns the same literal, and the
    trivial cases ([a & a], [a & !a], constants) fold away, so a graph
    built through {!add_and} is always canonical.

    The graph is append-only — ids are never recycled — which keeps the
    windowed optimisation driver ({!Synth.Aig_opt}) deterministic: it
    appends replacement logic, records root {!substitute}
    substitutions, and either keeps or clears them without ever moving
    an existing node. {!compact} derives a fresh canonical graph with
    the garbage dropped. *)

type t

type lit = int
(** [2 * node + complement]. *)

exception Cycle
(** Raised by {!resolve}, {!live_gate_count} and {!compact} when the
    substitution table creates a combinational loop (a replacement cone
    that reaches the node it replaces). The windowed driver learns of
    such a loop from {!Aig_live.apply}, which finds it without a global
    walk, and reverts the splice. *)

(** {1 Literals} *)

val const_false : lit
val const_true : lit

val lit_not : lit -> lit
val lit_node : lit -> int
val lit_is_compl : lit -> bool

val lit_of_node : ?compl:bool -> int -> lit

(** {1 Construction} *)

val create : unit -> t

val add_input : t -> string -> lit
(** Positive literal of a fresh primary input. All inputs must be
    created before the first AND node (the AIGER convention), and input
    names must be distinct. @raise Invalid_argument otherwise. *)

val add_and : t -> lit -> lit -> lit
(** Strashed, constant-folded conjunction. Both arguments are resolved
    through the substitution table first, so replacement logic built
    during a splice always references live nodes. *)

val add_or : t -> lit -> lit -> lit
(** De Morgan: [!(!a & !b)]. *)

val add_output : t -> string -> lit -> unit
(** Output names must be distinct. @raise Invalid_argument on a
    duplicate. *)

(** {1 Queries} *)

val node_count : t -> int
(** Allocated nodes including the constant and the inputs (and any
    garbage awaiting {!compact}). *)

val num_inputs : t -> int

val num_ands : t -> int
(** Allocated AND nodes; equals the live gate count on a graph fresh
    from {!compact}, {!of_network} or the AIGER parser. *)

val is_input : t -> int -> bool
val is_and : t -> int -> bool

val fanin0 : t -> int -> lit
val fanin1 : t -> int -> lit
(** Stored fanin literals of an AND node ([fanin0 >= fanin1]), not
    resolved through the substitution table.
    @raise Invalid_argument on a non-AND node. *)

val input_name : t -> int -> string

val inputs : t -> (string * lit) list
(** In creation order. *)

val outputs : t -> (string * lit) list
(** In creation order; literals as registered, not resolved. *)

(** {1 Substitution}

    The splice discipline of the windowed driver: replacing node [n] by
    literal [l] records [n -> l] in a side table; every read that
    matters ({!add_and} inputs, {!fanin_nodes}, {!live_gate_count},
    {!compact}) chases the table. A replacement is validated by
    {!Aig_live} — which detects both gate-count regressions and
    {!Cycle}s through incremental reference counts — and either kept or
    reverted with {!clear_substitute}. {!live_gate_count} is the
    independent full recount the driver checks it against once per
    run. *)

val substitute : t -> int -> lit -> unit
(** [substitute t n l]: node [n] now denotes literal [l]. [n] must be
    an AND node without an existing entry. *)

val clear_substitute : t -> int -> unit

val resolve : t -> lit -> lit
(** Chase substitutions to a live literal. @raise Cycle on a loop. *)

val fanin_nodes : t -> int -> int * int
(** The nodes an AND node's two fanin edges resolve to through the
    substitution table (node [0] for a constant edge).
    @raise Invalid_argument on a non-AND node, {!Cycle} as {!resolve}. *)

val live_gate_count : t -> int
(** AND nodes reachable from the outputs, resolving substitutions.
    @raise Cycle as {!resolve}. *)

val compact : t -> t
(** Fresh canonical graph: every input (dead or not, preserving names
    and order), then the output cones in deterministic DFS order with
    substitutions resolved, garbage dropped and structure re-hashed.
    [compact] is idempotent: compacting a compacted graph reproduces it
    node for node. *)

(** {1 Structural equality} *)

val equal : t -> t -> bool
(** Node-for-node equality: same inputs (names and order), same AND
    nodes (ids and fanin literals), same outputs (names and literals).
    Substitution tables must be empty on both sides. *)

(** {1 SOP-network bridges}

    Lossless in both directions, up to structural canonicalisation. *)

val to_network : t -> Network.t
(** One two-input AND logic node per live gate (inverters folded into
    the cube phases), a buffer/inverter/constant node per output edge
    that needs one. Input and output names are preserved, so the result
    feeds the existing equivalence checkers directly. *)

val add_network : t -> Network.t -> input:(Network.node_id -> lit) -> lit list
(** [add_network t net ~input] builds every logic node of [net] into [t]
    over the literals [input id] given for [net]'s inputs and returns the
    literals of [net]'s outputs, in {!Network.outputs} order. Tseitin
    decomposition: each cube becomes an AND chain over its literals in
    cube order, each cover a De Morgan OR chain over its cubes, and the
    nodes are built in {!Network.topological} order (dangling ones too),
    strashed and resolved as they go. This order fixes the new node ids,
    so the same network over the same literals always builds the same
    nodes. The windowed driver splices optimised windows back with it. *)

val of_network : Network.t -> t
(** A fresh graph with one input per network input (same names and
    order), the logic built by {!add_network}, and one output per
    network output. *)
