(** Revision-keyed memoisation of failed division attempts.

    The fixpoint drivers re-attempt every (dividend, divisor) pair each
    pass; after the first pass most attempts are byte-for-byte replays
    of failures whose inputs did not change. This table records each
    failure together with the {!Logic_network.Dirty} clock at which it
    ran and the set of nodes the attempt could have read; a later
    attempt with the same key is skipped iff none of those stamps moved
    past the recorded clock — the failure is then provably a replay
    (soundness argument in DESIGN.md §11).

    Failed Boolean attempts burn node ids on the main network (a
    transient quotient node advances the allocator, and node names are
    derived from ids), so each entry records the id burn and the caller
    must replay it with {!Logic_network.Network.reserve_ids} to keep
    memo-on and memo-off runs bit-identical.

    The table's lifetime is one driver run: entries key on node ids,
    which are never recycled within a run. It belongs to the driver's
    domain: one table for failures, one for whole-dividend scans. *)

module Node_set = Logic_network.Network.Node_set

type t

type phase = Pos | Neg | Both
(** Which polarity of the divisor the attempt covered. [Both] keys
    whole Boolean units that internally try both phases. *)

type meth = Algebraic | Boolean

type target =
  | Divisor of Logic_network.Network.node_id * phase
  | Pool of Logic_network.Network.node_id list
      (** multi-divisor extended unit; the pool list is part of the key *)

type reads
(** What a recorded attempt could have read. *)

val reads_of_set : Node_set.t -> reads

val all_nodes : reads
(** For attempts whose read set cannot be bounded (global-don't-care
    configurations derive implications across the whole network): valid
    only while the clock is unchanged. *)

val create : Logic_network.Dirty.t -> t

val dirty : t -> Logic_network.Dirty.t

val replay_dividend :
  ?gen:int -> t -> f:Logic_network.Network.node_id -> (int * int) option
(** [Some (burn, units)] iff a whole dividend scan for [f] was recorded
    and the clock has not moved at all since — and, when [gen] is given,
    the entry was recorded at the same refinement generation: every unit
    of the scan is then individually a provable replay, so the whole
    scan can be skipped after reserving [burn] ids. [units] is how many
    attempts the scan covered (for the hit counter). *)

val record_dividend :
  ?gen:int ->
  t ->
  f:Logic_network.Network.node_id ->
  at:int ->
  burn:int ->
  units:int ->
  unit
(** Record that the scan of dividend [f], started at clock [at],
    committed nothing. Only call when the clock still equals [at]. *)

val attempt :
  t ->
  Logic_network.Network.t ->
  counters:Rar_util.Counters.t ->
  f:Logic_network.Network.node_id ->
  target ->
  meth:meth ->
  reads:(unit -> reads) ->
  (unit -> bool) ->
  bool
(** [attempt t net ~counters ~f target ~meth ~reads run] is the
    per-unit protocol every division driver follows. If a failure with
    this key is recorded and every read stamp is still at or below the
    recorded clock, it ticks [memo_hits], reserves the recorded burn on
    [net] and returns [false] without calling [run] (stale entries are
    dropped on the way). Otherwise it ticks [memo_misses] and calls
    [run]; a failure is recorded at the current clock with the ids it
    burned and the read set [reads ()]. [run] must leave the network
    bit-identical to its pre-call state (modulo the id burn) whenever
    it returns [false]. [net] must be the network the memo's tracker
    watches: real attempts run under
    {!Logic_network.Dirty.speculating}, so a mutate-and-restore failure
    moves no stamps. *)
