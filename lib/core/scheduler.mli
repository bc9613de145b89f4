(** The dividend scheduler shared by every resubstitution driver.

    One substitution loop serves [sis] ([Synth.Resub]), [basic]/[ext]/
    [ext-gdc] ({!Substitute}) and [resub-k] ([Synth.Kresub]): passes
    over the logic nodes in ascending id order until one commits
    nothing (at most [max_passes]), each dividend scanned by the
    client. The scheduler owns everything around the scan:

    {ul
    {- the pass loop, with its [passes]/[pass_divisions] tallies and the
       per-pass [memo] and [checkpoint] trace events;}
    {- the wall deadline, polled once per dividend (and per batch);
       crossing it stops the remaining work as one degradation while
       every committed rewrite stands;}
    {- the {!Division_memo} (when [use_memo]) and its dividend-level
       fast path: a scan that committed nothing at a clock (and
       refinement generation) that has not moved since is skipped
       outright, reserving its recorded id burn;}
    {- at [jobs > 1], speculative whole-dividend scans on private
       snapshots of the frozen network, batched [jobs] at a time and
       resolved in ascending id order. A quiet verdict that survives
       the commits before it replays its id burn; any other verdict is
       discarded and the dividend re-scanned live, so every commit is
       made by the jobs=1 code in the jobs=1 order and any job count
       is byte-identical to jobs=1 (DESIGN.md §12).}}

    At [jobs = 1] no pool, snapshot or region shard is ever built. *)

module Network = Logic_network.Network

type outcome =
  | Quiet  (** scanned to quiescence, committed nothing *)
  | Committed  (** at least one rewrite landed *)
  | Refined
      (** changed shared scan state without committing, and did not
          reach quiescence (a resub-k counterexample refinement cut
          short); never recorded as a replayable scan *)

type reads =
  | Unbounded
      (** the scan may read anything: its verdict survives only while
          nothing has committed since the snapshot *)
  | Set of Network.Node_set.t
      (** every node the scan could read; the verdict survives commits
          whose own closures and footprints miss it *)

type client = {
  bounded : bool;
      (** [speculate] returns [Set] closures. Dividends are then sharded
          into {!Partition} regions, and a replayed dividend survives
          commits in other regions. *)
  scan : Network.node_id -> outcome;
      (** Scan a live dividend to quiescence, committing as it goes. *)
  speculate :
    Network.t -> Rar_util.Counters.t -> Network.node_id -> outcome * reads;
      (** Scan a dividend on a private snapshot, tallying into the given
          counters, up to its first would-be commit or refinement; never
          touch state shared with other workers. *)
}

val run :
  driver:string ->
  ?fields:(string * Rar_util.Trace.value) list ->
  ?gen:(unit -> int) ->
  ?pass_work:(Rar_util.Counters.t -> int Atomic.t) ->
  jobs:int ->
  use_memo:bool ->
  max_passes:int ->
  ?deadline_at:float ->
  trace:Rar_util.Trace.t ->
  counters:Rar_util.Counters.t ->
  Network.t ->
  (Division_memo.t option -> client) ->
  unit
(** [run ~driver ... net make_client] builds the memo, hands it to
    [make_client] and drives the client's scans to a fixpoint. [driver]
    names the trace span (with [jobs] and [fields]), the [memo] events
    and the deadline [degrade] event. [gen] (default constant 0) keys
    dividend-level memo entries; a scan that moves it invalidates later
    verdicts like a commit. [pass_work] (default [divisions_attempted])
    is the counter whose per-pass delta lands in [pass_divisions]. A
    final [counters] snapshot is emitted on [trace]. *)
