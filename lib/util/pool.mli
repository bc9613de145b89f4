(** A small fixed-size work pool over OCaml 5 domains: the [rarsubd]
    daemon's job scheduler.

    [create ~jobs] spawns [jobs - 1] worker domains that drain a
    persistent queue of submitted tasks. A pool with [jobs = 1] never
    spawns a domain and runs each task inline. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the runtime's estimate of
    usable parallelism on this machine. *)

val resolve_jobs : int -> int
(** The [rarsubd --jobs] rule: [0] means {!default_jobs}[ ()],
    negative values mean 1. *)

val create : jobs:int -> t
(** Spawn the pool. [jobs] is clamped below at 1. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue one task for asynchronous execution and return immediately.
    Submitted tasks form a persistent queue the worker domains drain
    continuously, as tasks arrive over time. On a [jobs = 1] pool (no
    worker domains) the task runs inline before [submit] returns. An
    exception escaping a task is parked (first one wins) and re-raised
    by the next {!drain}; it never kills a worker domain. *)

val drain : t -> unit
(** Block until every task passed to {!submit} so far has finished, then
    re-raise the first exception any of them let escape (if any). Call
    before {!shutdown}: shutdown abandons still-queued submitted tasks. *)

val shutdown : t -> unit
(** Stop and join the worker domains (idempotent). Submitted tasks still
    queued are abandoned — {!drain} first for a graceful stop. The pool
    must not be used afterwards. *)
