(** The daemon's cross-job result cache.

    Content-addressed: the key is the job's {e semantic identity} — the
    canonical form of the input network (BLIF re-serialised after
    parsing, so formatting, comments and header ordering don't fragment
    entries) concatenated with every flag that can influence the output
    bytes (script, method, filter, sim-seed, sim-words,
    fault-budget, and the don't-care view). Full keys are stored and
    compared on lookup — a hash collision can cost a miss, never a wrong
    result.

    Bounded and LRU-evicted: both an entry count and a byte budget,
    split across 16 independently locked stripes so concurrent worker
    domains only contend when their keys hash to the same stripe. Recency stamps come from one global atomic
    clock; eviction is least-recently-used within the stripe. *)

type config = { max_entries : int; max_bytes : int }

val default_config : config
(** 512 entries / 64 MiB. *)

type entry = { blif : string; literals : int; counters : string }

type t

val create : config -> t

val find : t -> string -> entry option
(** Lookup by full key; refreshes the entry's recency stamp and tallies
    a hit or miss. *)

val add : t -> string -> entry -> unit
(** Insert (or refresh) an entry, then evict least-recently-used entries
    of the same stripe until the stripe is back under its share of both
    budgets. An entry larger than a whole stripe's byte budget is not
    admitted at all. *)

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  entries : int;
  bytes : int;
}

val stats : t -> stats

val to_json : stats -> string
