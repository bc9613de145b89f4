(** A small fixed-size work pool over OCaml 5 domains.

    [create ~jobs] spawns [jobs - 1] worker domains; {!run} then executes
    a batch of independent thunks across the workers plus the calling
    domain and returns their results in submission order. Batches are
    synchronous: {!run} returns only once every thunk has finished, so
    the caller may freely read anything the thunks wrote. Thunks of one
    batch must not mutate state shared with each other — the intended use
    is speculative evaluation where every thunk works on its own
    {!Logic_network.Network.copy} snapshot.

    A pool with [jobs = 1] never spawns a domain and runs batches
    inline, so sequential callers pay nothing. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the runtime's estimate of
    usable parallelism on this machine. *)

val resolve_jobs : int -> int
(** The [--jobs] rule of every entry point: [0] means {!default_jobs}[ ()],
    negative values mean 1. *)

val create : jobs:int -> t
(** Spawn the pool. [jobs] is clamped below at 1. *)

val jobs : t -> int

val run : t -> (unit -> 'a) list -> 'a list
(** Execute the thunks, each exactly once, across the pool (the calling
    domain participates). Results are returned in input order. If any
    thunk raised, the whole batch still runs to completion and then the
    first (lowest-index) exception is re-raised on the calling domain.
    A raising task can never wedge the pool: completion accounting is
    protected ([Fun.protect]) and worker domains survive the exception,
    so the pool stays usable for further batches. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue one task for asynchronous execution and return immediately.
    Unlike {!run} batches, submitted tasks form a persistent queue the
    worker domains drain continuously — the intended use is a long-lived
    job scheduler (the [rarsubd] daemon) where tasks arrive over time
    rather than as one batch. Submitted tasks interleave freely with
    {!run} batches on the same pool. On a [jobs = 1] pool (no worker
    domains) the task runs inline before [submit] returns. An exception
    escaping a submitted task is parked (first one wins) and re-raised
    by the next {!drain}; it never kills a worker domain. *)

val drain : t -> unit
(** Block until every task passed to {!submit} so far has finished, then
    re-raise the first exception any of them let escape (if any). Call
    before {!shutdown}: shutdown abandons still-queued submitted tasks. *)

val shutdown : t -> unit
(** Stop and join the worker domains (idempotent). Submitted tasks still
    queued are abandoned — {!drain} first for a graceful stop. The pool
    must not be used afterwards. *)
