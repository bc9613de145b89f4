(** The dividend scheduler shared by every resubstitution driver.

    One substitution loop serves [sis] ([Synth.Resub]), [basic]/[ext]/
    [ext-gdc] ({!Substitute}) and [resub-k] ([Synth.Kresub]): passes
    over the logic nodes in ascending id order until one commits
    nothing (at most [max_passes]), each dividend scanned by the
    client. The scheduler owns everything around the scan:

    {ul
    {- the pass loop, with its [passes]/[pass_divisions] tallies and the
       per-pass [memo] and [checkpoint] trace events;}
    {- the wall deadline, polled once per dividend; crossing it stops
       the remaining work as one degradation while every committed
       rewrite stands;}
    {- the {!Division_memo} (when [use_memo]) and its dividend-level
       fast path: a scan that committed nothing at a clock (and
       refinement generation) that has not moved since is skipped
       outright, reserving its recorded id burn.}} *)

module Network = Logic_network.Network

type outcome =
  | Quiet  (** scanned to quiescence, committed nothing *)
  | Committed  (** at least one rewrite landed *)
  | Refined
      (** changed shared scan state without committing, and did not
          reach quiescence (a resub-k counterexample refinement cut
          short); never recorded as a replayable scan *)

val run :
  driver:string ->
  ?fields:(string * Rar_util.Trace.value) list ->
  ?gen:(unit -> int) ->
  ?pass_work:(Rar_util.Counters.t -> int Atomic.t) ->
  use_memo:bool ->
  max_passes:int ->
  ?deadline_at:float ->
  trace:Rar_util.Trace.t ->
  counters:Rar_util.Counters.t ->
  Network.t ->
  (Division_memo.t option -> Network.node_id -> outcome) ->
  unit
(** [run ~driver ... net make_scan] builds the memo, hands it to
    [make_scan] and drives the resulting scan — which scans one live
    dividend to quiescence, committing as it goes — to a fixpoint.
    [driver] names the trace span (with [fields]), the [memo] events
    and the deadline [degrade] event. [gen] (default constant 0) keys
    dividend-level memo entries; a scan that moves it invalidates later
    verdicts like a commit. [pass_work] (default [divisions_attempted])
    is the counter whose per-pass delta lands in [pass_divisions]:
    pass [i] of this run adds into entry [i] ({!Rar_util.Counters.add_pass}),
    so a record shared by many runs keeps at most [max_passes] entries.
    A final [counters] snapshot is emitted when [trace] is enabled. *)
