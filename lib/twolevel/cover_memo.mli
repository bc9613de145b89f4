(** Bounded per-domain memo tables for pure functions of a cover.

    Covers are immutable, and the division drivers keep asking for the
    same derived value of the same cover (its minimised complement, its
    factored literal count) across attempts, passes and whole-network
    recounts. A memo table caches such a value under the key
    [(tag, cover)]. [tag] separates the instances of one function (a
    complement size limit, say) and is [0] when there is only one.

    Each domain gets its own table ([Domain.DLS]), so parallel workers
    need no locking and can never observe each other's entries. A table
    is emptied wholesale when it reaches its cap, which bounds its
    memory whatever the workload. Only pure functions belong here: a hit
    must return exactly what the computation would have, so caching
    never changes a result. *)

type 'a t

val create : cap:int -> 'a t
(** A memo whose per-domain table holds at most [cap] entries. *)

val find_or_add : 'a t -> int -> Cover.t -> (unit -> 'a) -> 'a
(** [find_or_add t tag cover compute] returns the value cached under
    [(tag, cover)] (keys compare with {!Cover.equal}), or runs
    [compute ()], caches its result and returns it. An exception raised
    by [compute] propagates and caches nothing. *)
