(** The dividend scheduler shared by every resubstitution driver.

    One substitution loop serves [sis] ([Synth.Resub]), [basic]/[ext]/
    [ext-gdc] ({!Substitute}) and [resub-k] ([Synth.Kresub]): passes
    over the logic nodes in ascending id order until one commits
    nothing (at most [max_passes]), each dividend scanned by the
    client. The scheduler owns everything around the scan:

    {ul
    {- the pass loop, with its [passes]/[pass_divisions] tallies and the
       per-pass [checkpoint] trace event;}
    {- the wall deadline, polled once per dividend; crossing it stops
       the remaining work as one degradation while every committed
       rewrite stands.}} *)

module Network = Logic_network.Network

val run :
  driver:string ->
  ?fields:(string * Rar_util.Trace.value) list ->
  ?pass_work:(Rar_util.Counters.t -> int Atomic.t) ->
  max_passes:int ->
  ?deadline_at:float ->
  trace:Rar_util.Trace.t ->
  counters:Rar_util.Counters.t ->
  Network.t ->
  (Network.node_id -> bool) ->
  unit
(** [run ~driver ... net scan] drives [scan] — which scans one live
    dividend to quiescence, committing as it goes, and returns whether
    at least one rewrite landed — to a fixpoint. [driver] names the
    trace span (with [fields]) and the deadline [degrade] event.
    [pass_work] (default [divisions_attempted]) is the counter whose
    per-pass delta lands in [pass_divisions]: pass [i] of this run adds
    into entry [i] ({!Rar_util.Counters.add_pass}), so a record shared
    by many runs keeps at most [max_passes] entries. A final [counters]
    snapshot is emitted when [trace] is enabled. *)
