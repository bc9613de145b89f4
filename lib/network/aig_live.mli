(** Incremental live view of an {!Aig.t} under root substitutions.

    The gain test of the windowed driver ([Synth.Aig_opt]): which nodes
    the outputs reach, how many edges reach each, and how many AND gates
    are live, kept up to date through each splice at a cost bounded by
    the splice's neighbourhood, not by the graph. A splice is tried with
    {!apply}, which performs the substitutions, and then kept with
    {!commit} or undone with {!revert}.

    The counts always equal a fresh traversal: {!count} is
    {!Aig.live_gate_count} of the graph, and {!apply} reports a loop
    exactly when {!Aig.live_gate_count} would raise {!Aig.Cycle}. *)

type t

val create : Aig.t -> t
(** Traverse the graph once from its outputs. The view follows the
    graph's substitutions from then on, so every later substitution
    must go through {!apply}. @raise Aig.Cycle on a loop reachable
    from the outputs. *)

val count : t -> int
(** Live AND gates as of the last {!commit} (or {!create}). *)

val refs : t -> int -> int
(** Edges into the node from live AND gates and from the outputs,
    resolved through the substitution table; a node is live exactly
    when this is positive. As of the pending splice while one is
    pending. *)

val apply : t -> (int * Aig.lit) list -> int option
(** [apply t subs] performs [Aig.substitute] for each [(root, lit)] in
    order and returns the live AND count of the result, or [None] when
    the substitutions close a loop reachable from the outputs. The
    splice stays pending: follow with {!commit} (not after [None]) or
    {!revert}. Roots must be distinct live AND nodes.
    @raise Invalid_argument while another splice is pending. *)

val commit : t -> unit
(** Keep the pending splice. *)

val revert : t -> unit
(** Clear the pending splice's substitutions and restore every count
    it changed. *)
