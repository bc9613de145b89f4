(** Windowed resubstitution over large AIGs.

    The scaling bridge of ROADMAP item 2: real benchmarks arrive as
    tens-of-thousands-of-gate AIGER files — far beyond what the
    monolithic SOP drivers can collapse — so optimisation runs on
    {e windows}. A window is a small fanin-bounded cone around a pivot
    gate: its gates are collapsed to SOP covers over the window leaves,
    the resulting miniature {!Logic_network.Network} is optimised with
    the existing scripts and resubstitution methods, and the optimised
    network is Tseitin-built back into the AIG over the leaves by
    {!Logic_network.Aig.add_network} (the builder behind
    {!Logic_network.Aig.of_network}) and spliced in through
    {!Logic_network.Aig.substitute}. A splice is kept only when the
    global live gate count strictly drops (and the substitution did not
    close a combinational loop — see {!Logic_network.Aig.Cycle}), so
    the gate count is monotonically non-increasing across the run. The
    count is kept by {!Logic_network.Aig_live} through reference counts,
    at a cost per splice bounded by the roots' MFFCs and the new cones,
    not by the graph.

    Windows of fewer than {!min_gates} gates are skipped, and so is a window whose
    collapse gives some gate more than 128 cubes in either phase (it is
    skipped, not truncated).

    Every optimised window is checked against its collapsed original
    by {!Logic_sim.Equiv.exhaustive} over all leaf patterns, modulo the
    window's projected DC view, before it is spliced; a window that
    fails is skipped. The run also checks its incremental live count
    against one full {!Logic_network.Aig.live_gate_count} at the end,
    and fails with [Failure] if they differ.

    Windows are processed one at a time in deterministic (descending
    pivot id) order, each by one sequential resubstitution run, so the
    whole run is reproducible byte for byte. *)

type config = {
  max_gates : int;
      (** window size cap, gates (default 24, at least {!min_gates}) *)
  max_leaves : int;
      (** window leaf cap (default 8, from {!min_leaves} to
          {!leaf_limit}) *)
  script : Script.step list;  (** run on each window before resub *)
  meth : Script.resub_method;
  settings : Script.settings;
      (** every window's {!Script.resub_command} settings; the deadline
          is also polled between windows, so a late run stops splicing
          and returns what it has *)
  dc : Logic_network.Dont_care.t;
      (** external don't-care view over the AIG's primary inputs
          (default {!Logic_network.Dont_care.empty}). Per window, EXCDC
          cubes whose every literal names a leaf PI are projected into
          the window's input space and threaded into that window's
          script and resubstitution; cubes touching non-leaf inputs are
          dropped (sound under-approximation). A view with no cube over
          a window's leaves leaves that window byte-identical to a run
          without one. *)
}

val default_config : config
(** Script A, [Ext], {!Script.default_settings}, no DC view. *)

val leaf_limit : int
(** Widest [max_leaves] {!optimize} accepts (16): every window is
    checked over all [2^leaves] input patterns. *)

val min_leaves : int
(** Narrowest [max_leaves] {!optimize} accepts (3): a gate alone already
    has two leaves, and a window grows one gate at a time, so under a
    lower cap almost no window reaches {!min_gates} gates. A cap of 3
    still skips most windows (160 of 172 on [random_small.aag], against
    294 of 294 at 2); it is the floor, not a useful setting. *)

val min_gates : int
(** Windows of fewer gates are skipped (3), so it is also the smallest
    [max_gates] {!optimize} accepts. *)

type stats = {
  gates_before : int;
  gates_after : int;
  windows : int;
      (** windows grown around a pivot
          ([accepted + reverted + skipped]) *)
  accepted : int;  (** splices kept: strict live-gate-count win *)
  reverted : int;  (** splices undone: no win, or a {!Logic_network.Aig.Cycle} *)
  skipped : int;
      (** windows abandoned before splicing: too small, cover blowup,
          the optimiser left it alone, or the optimised window failed
          its check *)
  live_gates : int;
      (** live AND gates of the spliced graph before the final
          {!Logic_network.Aig.compact}, as the incremental live view
          counted them; compaction can fold more, so [gates_after] may
          be lower *)
}

val optimize :
  ?config:config ->
  ?trace:Rar_util.Trace.t ->
  ?counters:Rar_util.Counters.t ->
  Logic_network.Aig.t ->
  Logic_network.Aig.t * stats
(** Optimise every window of the AIG and return the compacted result
    (the input is not mutated — it is compacted into a working copy
    first). Raises [Invalid_argument] when [config.max_leaves] is
    outside {!min_leaves}..{!leaf_limit} or [config.max_gates] is below
    {!min_gates}: such caps would skip every window. [trace] receives [aig_window] events (pivot, gates,
    leaves, outcome, and the seconds of each phase) and an [aig_opt]
    summary; [counters] accumulates division tallies across all
    windows, and its snapshot rides on the summary as [counters]. *)
