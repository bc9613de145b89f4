(** External don't-care view over a network.

    A [Dont_care.t] records freedom granted by the *environment* of a
    circuit, in two forms:

    - {b EXCDC} (external controllability don't cares): a cover of
      input patterns the surrounding system never produces. Each cube
      is a list of [(input name, phase)] literals; an input valuation
      is {e forbidden} when every literal of some cube matches it.
    - {b EXOEC} (external observability equivalence classes): pairs of
      full output patterns the environment cannot distinguish; the
      classes are the transitive closure of the pairs.

    Everything is expressed over signal {e names}, not node ids, so a
    view built against a network remains valid for every
    [Network.copy] snapshot of it (copies preserve names).

    A view is an immutable value: the [.exdc] reader, {!make},
    {!merge} and {!project} build one, and nothing changes it after.
    Consumers meet the network through {!bind}, the one place that
    turns EXCDC cubes into their own literals and drops the cubes they
    cannot resolve — dropping don't-care information is always
    sound. *)

type t

val empty : t

val make :
  ?exoec:((string * bool) list * (string * bool) list) list ->
  (string * bool) list list ->
  t
(** [make ~exoec cubes] declares the input patterns matching every
    [(name, phase)] literal of some cube externally impossible, and
    each pair of full output patterns in [exoec] (default none)
    externally indistinguishable. Raises [Invalid_argument] on an
    empty cube (it would forbid everything), a cube with contradictory
    literals on one name, or a pattern that assigns two values to one
    output name. *)

val is_empty : t -> bool
(** [true] iff the view holds no EXCDC cubes and no EXOEC pairs. *)

val excdc : t -> (string * bool) list list
(** The cubes in insertion order, each normalised (sorted by name). *)

val exoec : t -> ((string * bool) list * (string * bool) list) list
(** The pairs in insertion order, as given. *)

val merge : t -> t -> t
(** [merge t extra]: the cubes and pairs of [t], then those of
    [extra]. *)

val same_output_class : t -> (string * bool) list -> (string * bool) list -> bool
(** Whether two full output patterns fall in the same equivalence
    class (reflexive-transitive closure of the pairs, with patterns
    compared modulo ordering). *)

val bind : t -> (string -> 'a option) -> ('a * bool) list list
(** [bind t resolve] is the EXCDC cover over the consumer's literals:
    each cube in insertion order, its literals in the cube's order,
    with every name resolved. A cube naming a signal [resolve] maps to
    [None] is dropped. A view with no bindable cube binds to [[]],
    which every consumer treats as no view. *)

val care_mask :
  t -> words:int -> stimulus:(string -> int64 array option) -> int64 array option
(** [care_mask t ~words ~stimulus] is a [words]-long mask whose bit
    [i] of word [w] is 1 iff simulation row [64*w + i] is in the care
    set — it matches no cube of [bind t stimulus] under the per-input
    stimulus. [None] when no cube binds (every row is cared). *)

val project : t -> rename:(string -> string option) -> t
(** [project t ~rename] restricts the view to a sub-circuit whose
    signals are a renaming of ours (e.g. an AIG window whose leaves
    map to primary inputs): the cubes of [bind t rename]. EXOEC pairs
    never project. *)
