(** Bounded per-domain memo tables for pure functions of a cover.

    Covers are immutable, and the division drivers keep asking for the
    same derived value of the same cover (its minimised complement, its
    factored literal count) across attempts, passes and whole-network
    recounts. A memo table caches such a value under the key
    [(tag, cover)]. [tag] separates the instances of one function (a
    complement size limit, say) and is [0] when there is only one.

    Each domain gets its own table ([Domain.DLS]), so parallel workers
    need no locking and can never observe each other's entries. Each
    domain keeps two generations of at most [cap] entries. New entries
    go into the young one; when it is full it becomes the old one and
    the previous old one is emptied, so memory stays bounded whatever
    the workload while a key reused soon after a turnover is still
    found. A hit in the old generation is promoted into the young one.
    Only pure functions belong here: a hit must return exactly what the
    computation would have, so caching never changes a result. *)

type 'a t

val create : cap:int -> 'a t
(** A memo whose per-domain generations hold at most [cap] entries
    each. *)

val find_or_add : 'a t -> int -> Cover.t -> (unit -> 'a) -> 'a
(** [find_or_add t tag cover compute] returns the value cached under
    [(tag, cover)] (keys compare with {!Cover.equal}), or runs
    [compute ()], caches its result and returns it. An exception raised
    by [compute] propagates and caches nothing. *)
