(** Combinational equivalence checking between two networks.

    Inputs and outputs are matched by name; both networks must expose the
    same input-name and output-name sets. Used by the test suite and the
    optimization drivers to guarantee that every rewrite preserves the
    circuit function.

    Every checker also verifies modulo don't cares: under a
    {!Logic_network.Dont_care} view [?dc], simulation rows matching an
    EXCDC cube are outside the care set and never count as mismatches,
    and a mismatch row whose two full output patterns fall in the same
    EXOEC class is excused. An empty view checks exactly like no view. *)

type result =
  | Equivalent
  | Counterexample of { output : string; assignment : (string * bool) list }
      (** [output] names a primary output the two networks disagree on
          under [assignment], which lists the full input valuation by
          input name. *)

val exhaustive :
  ?dc:Logic_network.Dont_care.t ->
  Logic_network.Network.t ->
  Logic_network.Network.t ->
  result
(** Complete check by 64-way parallel enumeration; the networks must have
    at most 22 inputs. *)

val random :
  ?seed:int ->
  ?words:int ->
  ?dc:Logic_network.Dont_care.t ->
  Logic_network.Network.t ->
  Logic_network.Network.t ->
  result
(** Random simulation with [64 * words] patterns (default 64 words).
    [Equivalent] means "no difference found". *)

val exhaustive_cut : int
(** Widest network {!check} proves exhaustively (14 inputs). *)

val check_words : int
(** Pattern words {!check} samples above {!exhaustive_cut} (256, so
    16,384 random patterns). *)

val check :
  ?dc:Logic_network.Dont_care.t ->
  Logic_network.Network.t ->
  Logic_network.Network.t ->
  result
(** {!exhaustive} up to {!exhaustive_cut} inputs, otherwise {!random}
    over {!check_words} words, whose [Equivalent] is not a proof: the
    verifier behind [--verify], modulo [dc] when a [.exdc] section or
    [--exdc] file is in play. *)

val equivalent : Logic_network.Network.t -> Logic_network.Network.t -> bool
(** [check] collapsed to a boolean. *)
