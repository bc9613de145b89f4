(** Shared performance counters for the substitution pipelines.

    One record threaded through a resubstitution run so the cost of
    divisor filtering and implication work is observable: how many
    (dividend, divisor) pairs were examined, how many the
    signature/structural filter rejected before any division ran, how
    many divisions were actually attempted and committed, how often the
    implication arena was rebuilt from scratch versus reset in place,
    and the wall-clock split between the phases.

    Every scalar tally is an {!Atomic.t}, so a record shared between
    domains loses no update. The one structured field,
    [pass_divisions], is owned by the driver's fixpoint loop alone. *)

type t = {
  pairs_considered : int Atomic.t;
  pairs_filtered : int Atomic.t;  (** rejected before any division *)
  divisions_attempted : int Atomic.t;
  substitutions : int Atomic.t;  (** committed rewrites *)
  memo_hits : int Atomic.t;
      (** always 0: the division-failure memo that ticked it is gone
          (DESIGN.md §11). Kept, with [memo_misses], only because the
          perfbench harness reads both fields; {!accumulate},
          {!to_string} and {!to_json} ignore them. *)
  memo_misses : int Atomic.t;  (** always 0, as [memo_hits] *)
  imply_creates : int Atomic.t;
      (** implication arenas built (or rebuilt after a mutation) *)
  imply_refreshes : int Atomic.t;
      (** arenas brought up to date in place after one node changed,
          instead of being rebuilt *)
  imply_resets : int Atomic.t;
      (** trail-based arena reuses between redundancy tests *)
  imply_checkpoints : int Atomic.t;
      (** trail rewinds to a checkpoint instead of a full reset+replay *)
  degradations : int Atomic.t;
      (** budget exhaustions absorbed by falling back to a weaker result
          (redundancy scan cut short, vote table truncated, unit
          skipped) instead of aborting the run *)
  floor_rejects : int Atomic.t;
      (** division attempts rejected before their expensive step because
          an exact literal floor ([Lit_floor]) proved
          they could not pay *)
  passes : int Atomic.t;  (** fixpoint passes executed by the driver *)
  kresub_candidates : int Atomic.t;
      (** resubstitution candidates constructed from signatures by the
          [Kresub] driver (before exact validation) *)
  kresub_validated : int Atomic.t;
      (** kresub candidates that passed exact BDD validation *)
  kresub_refinements : int Atomic.t;
      (** counterexample patterns folded back into the kresub signature
          vectors after a failed validation *)
  mutable pass_divisions : int list;
      (** divisions_attempted per pass index, first pass first: pass
          [i] of every run tallied into this record, and of every
          record accumulated into it, adds into entry [i]. The list is
          never longer than the longest run's pass count. Driver-owned. *)
  filter_seconds : float Atomic.t;
  division_seconds : float Atomic.t;
  validation_seconds : float Atomic.t;
      (** wall-clock spent in exact (BDD) validation of kresub
          candidates — reported separately from [division_seconds] so
          constructive matching and oracle time stay attributable *)
}

val create : unit -> t
(** All-zero counters. *)

val add : int Atomic.t -> int -> unit
(** Atomic fetch-and-add; [add cell 1] is the idiomatic increment. *)

val add_seconds : float Atomic.t -> float -> unit
(** Atomic add for the float buckets (compare-and-set retry loop). *)

val add_pass : t -> int -> int -> unit
(** [add_pass t i n] adds [n] into [pass_divisions] entry [i]
    (0-based), extending the list with zeros when it is shorter. *)

val accumulate : t -> t -> unit
(** [accumulate dst src] adds [src]'s tallies into [dst] ([passes] takes
    the max, [pass_divisions] sums index-wise). *)

val timed :
  t -> [ `Filter | `Division | `Validate ] -> (unit -> 'a) -> 'a
(** Run a thunk and add its elapsed wall-clock time to the chosen
    bucket. Exception-safe: the time is recorded (and the exception
    re-raised) also when the thunk raises. *)

val to_string : t -> string
(** One-line human-readable summary. *)

val to_json : t -> string
(** JSON object with every live field (for the bench harness). *)
