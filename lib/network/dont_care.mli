(** External don't-care view over a network.

    A [Dont_care.t] records freedom granted by the *environment* of a
    circuit, in two forms:

    - {b EXCDC} (external controllability don't cares): a cover of
      input patterns the surrounding system never produces. Each cube
      is a list of [(input name, phase)] literals; an input valuation
      is {e forbidden} when every literal of some cube matches it.
    - {b EXOEC} (external observability equivalence classes): pairs of
      full output patterns the environment cannot distinguish; the
      classes are the transitive closure of the added pairs.

    Everything is expressed over signal {e names}, not node ids, so a
    view built against a network remains valid for every
    [Network.copy] snapshot of it (copies preserve names). Consumers
    resolve names themselves and must drop cubes whose names they
    cannot resolve — dropping don't-care information is always sound.

    The view is mutable and carries its own revision counter,
    independent of the network's, so cached derivatives (care masks in
    the signature engine, resolved cube tables in the imply arena) can
    detect staleness. *)

type t

val create : unit -> t

val copy : t -> t
(** Snapshot of the current contents; further [add_*] calls on either
    copy do not affect the other. *)

val revision : t -> int
(** Bumped by every successful [add_excdc] / [add_exoec_pair]. *)

val is_empty : t -> bool
(** [true] iff the view holds no EXCDC cubes and no EXOEC pairs. An
    empty view must leave every consumer byte-identical to running
    without one. *)

val add_excdc : t -> (string * bool) list -> unit
(** [add_excdc t lits] declares the input pattern matching every
    [(name, phase)] literal externally impossible. Raises
    [Invalid_argument] on an empty cube (it would forbid everything)
    or a cube with contradictory literals on one name. *)

val excdc : t -> (string * bool) list list
(** The cubes in insertion order, each normalised (sorted by name). *)

val add_exoec_pair : t -> (string * bool) list -> (string * bool) list -> unit
(** [add_exoec_pair t pat1 pat2] declares the two full output patterns
    externally indistinguishable. Raises [Invalid_argument] if either
    pattern assigns two values to one output name. *)

val exoec : t -> ((string * bool) list * (string * bool) list) list
(** The added pairs in insertion order, as given. *)

val merge : t -> t -> unit
(** [merge t extra] adds every EXCDC cube and EXOEC pair of [extra] to
    [t], in insertion order. *)

val same_output_class : t -> (string * bool) list -> (string * bool) list -> bool
(** Whether two full output patterns fall in the same equivalence
    class (reflexive-transitive closure of the added pairs, with
    patterns compared modulo ordering). *)

val care_mask : t -> words:int -> stimulus:(string -> int64 array option) -> int64 array
(** [care_mask t ~words ~stimulus] returns a [words]-long mask whose
    bit [i] of word [w] is 1 iff simulation row [64*w + i] is in the
    care set — i.e. matches no EXCDC cube under the per-input
    stimulus. Cubes naming an input for which [stimulus] returns
    [None] are dropped (their rows stay cared — conservative). An
    empty view yields the all-ones mask. *)

val project : t -> rename:(string -> string option) -> t
(** [project t ~rename] restricts the view to a sub-circuit whose
    signals are a renaming of ours (e.g. an AIG window whose leaves
    map to primary inputs). An EXCDC cube survives iff {e every}
    literal's name renames; EXOEC pairs never project. The result is a
    fresh independent view. *)
