(** Network-level basic Boolean division (Section III of the paper).

    Dividing node [f] by divisor node [d] proceeds exactly as in the
    paper's Fig. 2:

    + the cubes of [f] whose lifted form is contained in some lifted cube
      of [d] become the region [f1]; the rest is the remainder [r];
    + the network is restructured to [f = (f1 ∧ d) ∨ r] — materialised as
      a fresh quotient node holding [f1] plus the "bold AND" cube
      [{quotient, d}] inside [f]. By Lemma 1 the addition is redundant
      {e a priori}: no redundancy test is needed, which is the paper's key
      efficiency claim over classic RAR;
    + implication-based redundancy removal runs on the quotient node's
      wires; every conflict (e.g. the divisor forced to both 0 and 1)
      deletes a literal of the emerging quotient;
    + the quotient node is folded back into [f], leaving
      [f = q·d + r] as a single SOP node with [d] among its fanins.

    The implication radius follows the paper's configurations: confined to
    the [f]/[d] region by default, global when [gdc] is set (all internal
    don't cares; optionally with recursive learning). *)

type outcome = {
  quotient_literals : int;  (** flat literals of the final quotient *)
  wires_removed : int;  (** wires deleted by the redundancy-removal step *)
  literal_gain : int;  (** factored-form literals saved on node [f] *)
  degraded : bool;
      (** the removal step's budget ran out, so the quotient fell back
          toward the algebraic one (still correct, possibly weaker) *)
}

val f1_indices :
  ?phase:bool ->
  Logic_network.Network.t ->
  f:Logic_network.Network.node_id ->
  d:Logic_network.Network.node_id ->
  int list
(** The indices, in [f]'s cover, of the cubes contained in a cube of [d]
    (of [d]'s complement when [phase] is [false]): the region [f1] that
    {!divide} moves into the quotient. [[]] also when the pair cannot be
    divided at all: [f] or [d] is an input, [f = d], or [d] depends on
    [f]. The test runs in [f]'s fanin slots ({!Logic_network.Lift.carry}),
    and equals containment of the lifted cubes. *)

val divide :
  ?phase:bool ->
  ?gdc:bool ->
  ?learn_depth:int ->
  ?budget:Rar_util.Budget.t ->
  ?counters:Rar_util.Counters.t ->
  ?dc:Logic_network.Dont_care.t ->
  ?f1:int list ->
  Logic_network.Network.t ->
  f:Logic_network.Network.node_id ->
  d:Logic_network.Network.node_id ->
  outcome option
(** Restructure [f] as [q·d + r] in place ([q·d' + r] when [phase] is
    [false], the [-d] flavour), regardless of literal gain
    (callers wanting a gain policy should use {!try_divide}). [None] when
    {!f1_indices} is [[]], or when the quotient cannot be folded back into
    [f] (a composition blow-up): the division runs as a
    {!Logic_network.Network.attempt}, which then rolls back. [budget]
    bounds the redundancy-removal step; exhaustion degrades the quotient toward the algebraic one instead of
    failing (flagged in {!outcome.degraded}). [dc] lets the removal step
    also exploit external don't cares (see {!Rewiring.Remove.run}), so
    the quotient can shrink further; the result is then only guaranteed
    equivalent modulo the DC view. [f1], when given, must be what
    {!f1_indices} returns for the same network and arguments; it saves
    the caller that already computed it a second SOS test. *)

val try_divide :
  ?phase:bool ->
  ?gdc:bool ->
  ?learn_depth:int ->
  ?budget:Rar_util.Budget.t ->
  ?counters:Rar_util.Counters.t ->
  ?dc:Logic_network.Dont_care.t ->
  ?f1:int list ->
  Logic_network.Network.t ->
  f:Logic_network.Network.node_id ->
  d:Logic_network.Network.node_id ->
  outcome option
(** Like {!divide} but commits only on positive {!outcome.literal_gain};
    otherwise the attempt rolls back, the network is left untouched, its
    id allocator included, and the result is [None]. [f1] is passed on
    to {!divide}. *)

val region_nodes :
  Logic_network.Network.t ->
  Logic_network.Network.node_id list ->
  Logic_network.Network.node_id list
(** The local implication region used by the non-GDC configurations: the
    given nodes and their immediate fanins, possibly repeated (as
    {!Atpg.Imply.create}'s [region] accepts it). *)
