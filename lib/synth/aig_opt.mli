(** Windowed resubstitution over large AIGs.

    The scaling bridge of ROADMAP item 2: real benchmarks arrive as
    tens-of-thousands-of-gate AIGER files — far beyond what the
    monolithic SOP drivers can collapse — so optimisation runs on
    {e windows}. A window is a small fanin-bounded cone around a pivot
    gate: its gates are collapsed to SOP covers over the window leaves,
    the resulting miniature {!Logic_network.Network} is optimised with
    the existing scripts and resubstitution methods, and the optimised
    network is Tseitin-spliced back into the AIG through
    {!Logic_network.Aig.substitute}. A splice is kept only when the
    global live gate count strictly drops (and the substitution did not
    close a combinational loop — see {!Logic_network.Aig.Cycle}), so
    the gate count is monotonically non-increasing across the run. The
    count is kept by {!Logic_network.Aig_live} through reference counts,
    at a cost per splice bounded by the roots' MFFCs and the new cones,
    not by the graph.

    Windows are processed one at a time in deterministic (descending
    pivot id) order, each by one sequential resubstitution run, so the
    whole run is reproducible byte for byte. *)

type config = {
  max_gates : int;  (** window size cap, gates (default 24) *)
  max_leaves : int;  (** window leaf cap (default 8) *)
  min_gates : int;  (** skip windows smaller than this (default 3) *)
  cube_limit : int;
      (** per-node cover cap while collapsing a window; a window whose
          collapse exceeds it is skipped, not truncated (default 128) *)
  script : Script.step list;  (** run on each window before resub *)
  meth : Script.resub_method;
  settings : Script.settings;
      (** every window's {!Script.resub_command} settings; the deadline
          is also polled between windows, so a late run stops splicing
          and returns what it has *)
  verify_windows : bool;
      (** BDD-check every optimised window against its collapsed
          original before splicing (belt-and-braces; windows are small
          enough that this is cheap). With a window DC view in play the
          check runs modulo DC ({!Logic_sim.Equiv.check_dc}). The run
          also checks its incremental live count against one full
          {!Logic_network.Aig.live_gate_count} at the end, and fails
          with [Failure] if they differ. *)
  dc : Logic_network.Dont_care.t option;
      (** external don't-care view over the AIG's primary inputs
          (default [None]). Per window, EXCDC cubes whose every literal
          names a leaf PI are projected into the window's input space
          and threaded into that window's script and resubstitution;
          cubes touching non-leaf inputs are dropped (sound
          under-approximation). An absent or empty view leaves the run
          byte-identical. *)
}

val default_config : config
(** Script A, [Ext], {!Script.default_settings}, verification off. *)

type stats = {
  gates_before : int;
  gates_after : int;
  windows : int;
      (** windows grown around a pivot
          ([accepted + reverted + skipped]) *)
  accepted : int;  (** splices kept: strict live-gate-count win *)
  reverted : int;  (** splices undone: no win, or a {!Logic_network.Aig.Cycle} *)
  skipped : int;  (** windows abandoned before splicing: too small,
                      cover blowup, or the optimiser left it alone *)
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
    first). [trace] receives [aig_window] events (pivot, gates, leaves,
    outcome) and an [aig_opt] summary; [counters] accumulates division
    tallies across all windows, and its snapshot rides on the summary
    as [counters]. *)
