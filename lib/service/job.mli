(** Job semantics: what one job means and how to run it.

    The single definition of a job: the starting script, then the
    method under one {!Synth.Script.settings} record ({!run}), then
    {!serialise}. [rarsub optimize] calls both on the network it
    loaded, the daemon through {!execute} after parsing the request,
    so a reply is byte-identical to [rarsub optimize -f] on the bytes
    the client sent.

    {2 Warm per-worker state}

    The expensive engines (imply arenas, signature tables, fanin
    caches) are bound to the network instance a run mutates, so they
    cannot outlive a job — but everything {e above} them can. A {!warm}
    record caches, per worker domain: the parsed pristine network of
    each recently seen circuit (keyed by the raw request bytes, so a
    repeat submission skips BLIF parsing and canonicalisation), and the
    post-script network snapshot per (circuit, script) (so jobs that
    share a script prefix skip the script entirely). Jobs run on
    {!Logic_network.Network.copy}s of these snapshots; copies preserve
    node ids, which is what makes warm-path results byte-identical to
    cold ones (the PR 2–6 determinism discipline). *)

type warm

val create_warm : unit -> warm

(** {2 The job} *)

type spec = {
  script : string;  (** a name in {!Synth.Script.scripts} *)
  meth : Synth.Script.job_method;
  settings : Synth.Script.settings;
      (** resolved against the engine defaults; [deadline_at] is
          unset *)
  deadline : float option;  (** seconds, anchored when the method starts *)
}

val spec_of_request : Protocol.request -> (spec, string) result
(** Resolve a request's job fields against the {!Synth.Script} name
    tables. [Error] names an unknown script or method. *)

val anchored : spec -> Synth.Script.settings
(** [spec.settings] with [deadline] anchored at this call. *)

val run :
  ?trace:Rar_util.Trace.t ->
  ?counters:Rar_util.Counters.t ->
  ?dc:Logic_network.Dont_care.t ->
  ?on_script:(Logic_network.Network.t -> float -> unit) ->
  spec ->
  Logic_network.Network.t ->
  unit
(** Run the script, then the method, on the network in place.
    [on_script] sees the network and the script's wall seconds between
    the two phases, before the deadline is anchored. [dc] reaches the
    method only, [trace] both phases. *)

val serialise :
  ?dc:Logic_network.Dont_care.t -> Logic_network.Network.t -> string
(** The one job serialiser: {!Logic_network.Blif.to_string}, plus the
    canonical [.exdc] section when [dc] is given. *)

(** {2 The daemon's path} *)

type prepared
(** A validated request with its parsed network and cache identity. *)

val prepare : ?warm:warm -> Protocol.request -> (prepared, string) result
(** Validate names, parse (or reuse) the network, parse the request's
    [exdc] section (if any) against it, and compute the canonical cache
    key — which folds in the canonical [.exdc] text, so jobs with
    different don't-care views never share a cached result. [Error]
    carries a client-presentable message ([exdc:<line>: ...] for a bad
    section). *)

val cache_key : prepared -> string option
(** The content-addressed identity, or [None] when the job must not be
    cached (a wall-clock [deadline] makes the output nondeterministic). *)

val execute : ?warm:warm -> prepared -> Cache.entry
(** {!run} on a copy of the parsed network (or of a warm post-script
    snapshot), then {!serialise} with the job's don't-care view. *)

val run_cold : Protocol.request -> (Cache.entry, string) result
(** [prepare] + [execute] with no warm state and no cache — the
    reference a service response must match byte-for-byte. *)
