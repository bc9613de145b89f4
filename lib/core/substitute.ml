open Twolevel
module Network = Logic_network.Network
module Lit_count = Logic_network.Lit_count
module Lit_floor = Logic_network.Lit_floor
module Lift = Logic_network.Lift
module Signature = Logic_sim.Signature
module Counters = Rar_util.Counters
module Budget = Rar_util.Budget
module Trace = Rar_util.Trace

let log_src = Logs.Src.create "booldiv.substitute" ~doc:"Substitution driver"

module Log = (val Logs.src_log log_src : Logs.LOG)

type mode = Basic | Extended

type config = {
  mode : mode;
  gdc : bool;
  learn_depth : int;
  use_complement : bool;
  try_pos : bool;
  max_divisors : int;
  max_pool : int;
  max_passes : int;
  sim_seed : int;
  dc : Logic_network.Dont_care.t option;
}

let basic_config =
  {
    mode = Basic;
    gdc = false;
    learn_depth = 0;
    use_complement = true;
    try_pos = true;
    max_divisors = 20;
    max_pool = 6;
    max_passes = 4;
    sim_seed = Signature.default_seed;
    dc = None;
  }

let extended_config = { basic_config with mode = Extended }

let extended_gdc_config =
  { extended_config with gdc = true; learn_depth = 1 }

type stats = {
  basic_substitutions : int;
  extended_substitutions : int;
  pos_substitutions : int;
  literals_before : int;
  literals_after : int;
  counters : Counters.t;
}

(* Candidate divisors for a node: gated on fanin-cone overlap plus
   signature compatibility and ranked by onset-overlap popcount. [d]
   depends on [f] iff [d] is in [f]'s transitive fanout ([tfo]), and
   the two fanin cones meet iff [d] is in the transitive fanout of
   [f]'s cone ([meet]), so two cones per dividend answer both cone
   questions for every [d]. *)
let rank_divisors ~counters ~sigs ~cones:(tfo, meet) net f ~use_complement
    ~limit =
  Counters.timed counters `Filter @@ fun () ->
  Network.clear tfo;
  ignore (Network.mark_fanout net tfo [ f ]);
  Network.clear meet;
  ignore (Network.mark_fanout net meet (Network.mark_fanin net meet [ f ]));
  let admitted =
    List.filter
      (fun d ->
        d <> f
        &&
        let admit =
          (not (Network.in_cone tfo d))
          && Network.in_cone meet d
          && Signature.compatible sigs ~use_complement ~f ~d
        in
        Counters.add counters.Counters.pairs_considered 1;
        if not admit then Counters.add counters.Counters.pairs_filtered 1;
        admit)
      (Network.logic_ids net)
  in
  Array.to_list
    (Signature.rank ~k:limit
       ~score:(fun d -> Signature.score sigs ~use_complement ~f ~d)
       (Array.of_list admitted))

let pos_cube_limit = 64

(* The region floor of a unit [f]/[d] (DESIGN §19.1): [d]'s cover in the
   combined slots, [f]'s fanins then [d]'s that [f] lacks, in [d]'s
   order ([map] gives [d]'s fanin slots among [f]'s, [-1] where [f]
   lacks the fanin), [f]'s factored count, and whether the floor
   reaches it. With [d] a fanin of [f] already the floor does not
   apply. Computed at most once per unit, before anything commits. *)
type floor = {
  map : int array;
  d_lift : Cover.t;
  before_lits : int;
  cannot_pay : bool;
}

let unit_floor net ~f ~d =
  lazy
    (let f_fanins = Network.fanins net f in
     let map = Lift.slot_map net ~src:d ~dst:f in
     let next = ref (Array.length f_fanins) in
     let slot =
       Array.map
         (fun s ->
           if s >= 0 then s
           else begin
             incr next;
             !next - 1
           end)
         map
     in
     let d_lift = Cover.map_vars (Array.get slot) (Network.cover net d) in
     let before_lits = Lit_count.node_factored net f in
     let cannot_pay =
       (not (Array.mem d f_fanins))
       && Lit_floor.pos ~f:(Network.cover net f) ~d:d_lift >= before_lits
     in
     { map; d_lift; before_lits; cannot_pay })

(* {!Division.meets_support} on [d]'s lifted cover, decided on [d]'s own:
   a lifted cube names a variable of [f]'s cover support exactly when
   the cube names a fanin that is the node of such a variable. *)
let meets_support net ~f ~d =
  let f_fanins = Network.fanins net f in
  let support =
    List.map (Array.get f_fanins) (Cover.support (Network.cover net f))
  in
  let named = Array.map (fun x -> List.mem x support) (Network.fanins net d) in
  List.for_all
    (fun k ->
      Cube.fold_literals (fun hit l -> hit || named.(Literal.var l)) false k)
    (Cover.cubes (Network.cover net d))

let reject counters =
  Option.iter (fun c -> Counters.add c.Counters.floor_rejects 1) counters

(* POS substitution at the cover level: lift d into f's fanin space
   extended by d's other fanins, divide in product-of-sums form, and
   rebuild f's SOP cover as (q + d)·r with d as a literal. The identity
   is algebraic on covers, so no implication machinery is involved.
   Three exact tests settle most attempts before any complement is
   minimised: the support test (a cube of d naming no variable of f's
   cover), the unit's region floor on f's and d's truth table, and,
   after the first two complements, the sliced floor on the factors'
   complements. The gain is decided on the normalised cover the network
   would store, so a failing attempt never mutates it. *)
let pos_unit ?counters ~floor net ~f ~d =
  if
    f = d
    || Network.is_input net f
    || Network.is_input net d
    || Network.depends_on net d f
  then false
  else if not (meets_support net ~f ~d) then (reject counters; false)
  else begin
    let { map; d_lift; before_lits; cannot_pay } = Lazy.force floor in
    (* With [d] a new fanin its literal gets a slot of its own, and the
       floors hold for the stored cover. *)
    let fresh = not (Array.mem d (Network.fanins net f)) in
    if cannot_pay then (reject counters; false)
    else
      let f_fanins = Network.fanins net f and f_cover = Network.cover net f in
      match
        Option.bind
          (Division.pos_complements ~complement_limit:pos_cube_limit
             ~f:f_cover ~d:d_lift ())
          (fun (q_not, r_not) ->
            if fresh && Lit_floor.pos_rebuild ~q_not ~r_not >= before_lits
            then (reject counters; None)
            else
              Division.pos_of_complements ~complement_limit:pos_cube_limit
                (q_not, r_not))
      with
      | None -> false
      | Some { pos_quotient; pos_remainder } ->
        let combined =
          Array.append f_fanins
            (Array.of_list
               (List.filteri
                  (fun v _ -> map.(v) < 0)
                  (Array.to_list (Network.fanins net d))))
        in
        let d_slot = Array.length combined in
        let d_lit =
          Cover.of_cubes [ Cube.of_literals_exn [ Literal.pos d_slot ] ]
        in
        let rebuilt =
          Cover.product (Cover.union pos_quotient d_lit) pos_remainder
        in
        let fanins = Array.append combined [| d |] in
        Cover.cube_count rebuilt <= pos_cube_limit
        && Lift.set_function_if_cheaper net f ~below:before_lits ~fanins
             rebuilt
  end

let substitute_pos ?counters net ~f ~d =
  pos_unit ?counters ~floor:(unit_floor net ~f ~d) net ~f ~d

(* One basic-division work unit of [f] against [d]: the direct phase,
   the complemented one, then the combined rewrite when neither
   commits. *)
let basic_unit ~floor ~config ?budget ~counters ~sigs net ~f ~d =
  let gdc = config.gdc and learn_depth = config.learn_depth in
  (* Per-phase signature gate: dividing f by d needs their onsets to
     meet; dividing by d' needs f's onset to meet d's offset. Checked
     lazily (signatures may have moved since ranking if an earlier
     attempt committed). *)
  let phase_possible phase = Signature.phase_compatible sigs ~phase ~f ~d in
  (* Each phase's SOS set, computed at most once, when first needed. A
     set is reused only while nothing has committed: a failed division
     restores [f]'s stored pair exactly, so the set still indexes its
     cover. *)
  let sos phase = lazy (Basic_division.f1_indices ~phase net ~f ~d) in
  let direct_sos = sos true and complement_sos = sos false in
  let f1 phase = Lazy.force (if phase then direct_sos else complement_sos) in
  (* Where the division's region sees every fanin assignment, the
     unit's region floor bounds both phases and the combined rewrite
     (DESIGN §19.10). Decided when a phase first has an SOS set, so
     before anything commits. *)
  let blocked =
    lazy
      ((Lazy.force floor).cannot_pay
      && Basic_division.exact_region ~gdc ?budget ?dc:config.dc net ~f ~d
      && begin
        Counters.add counters.Counters.floor_rejects 1;
        true
      end)
  in
  let commit phase =
    phase_possible phase
    &&
    let f1 = f1 phase in
    f1 <> []
    && (not (Lazy.force blocked))
    &&
    match
      Basic_division.try_divide ~phase ~gdc ~learn_depth ?budget ~counters
        ?dc:config.dc ~f1 net ~f ~d
    with
    | Some outcome ->
      Log.debug (fun m ->
          m "basic division: %s / %s%s (+%d literals)" (Network.name net f)
            (Network.name net d)
            (if phase then "" else "'")
            outcome.Basic_division.literal_gain);
      true
    | None -> false
  in
  (* Combined rewrite f = q·d + q'·d' + r: each phase alone can be
     gain-neutral while the pair is profitable (both phases share the
     single literal cost of d). It runs only when neither phase
     committed, so both sets below are those of the unit's [f]. The
     first division keeps [f]'s cubes outside its SOS set and adds
     cubes [q_i·d] with [c ≤ q_i] for an SOS cube [c ≤ d]; no such
     cube lies inside a cube of [d'] ([c] would be 0), so without a
     phase-false SOS cube of [f] the second divide returns [None]. *)
  let commit_both () =
    phase_possible true && phase_possible false
    && f1 true <> [] && f1 false <> []
    && (not (Lazy.force blocked))
    && Option.is_some
         (Network.attempt net @@ fun () ->
          let first =
            Basic_division.divide ~gdc ~learn_depth ?budget ~counters
              ?dc:config.dc ~f1:(f1 true) net ~f ~d
          in
          let second =
            Basic_division.divide ~phase:false ~gdc ~learn_depth ?budget
              ~counters ?dc:config.dc net ~f ~d
          in
          if first <> None && second <> None && Lit_count.attempt_gain net > 0
          then Some ()
          else None)
  in
  let direct = commit true in
  let complemented =
    if config.use_complement then commit false else false
  in
  if direct || complemented then true
  else if config.use_complement then commit_both ()
  else false

let attempt_basic ~config ?budget ~counters ~sigs net ~f ~d =
  basic_unit ~floor:(unit_floor net ~f ~d) ~config ?budget ~counters ~sigs net
    ~f ~d

(* One work unit of the greedy policy for a node f: the extended-division
   attempt over the pool, or one basic/POS attempt against a divisor. *)
type unit_task = Ext of Network.node_id list | Div of Network.node_id

(* The attempt functions of the greedy policy on [net]: each unit returns
   the kind of substitution it committed, if any. [sigs] must belong to
   [net]. *)
let make_attempts ~config ?fault_fuel ?deadline_at ~trace ~counters ~sigs net
    =
  let gdc = config.gdc and learn_depth = config.learn_depth in
  (* Each work unit gets its own budget so one runaway division cannot
     starve the rest of the run; the wall deadline is shared (absolute). *)
  let fresh_budget () =
    if fault_fuel = None && deadline_at = None then None
    else Some (Budget.create ?fuel:fault_fuel ?deadline_at ())
  in
  let attempt_basic ~floor ?budget f d =
    Counters.timed counters `Division @@ fun () ->
    Counters.add counters.Counters.divisions_attempted 1;
    basic_unit ~floor ~config ?budget ~counters ~sigs net ~f ~d
  in
  let attempt_pos ~floor f d =
    config.try_pos
    && Counters.timed counters `Division @@ fun () ->
       Counters.add counters.Counters.divisions_attempted 1;
       pos_unit ~counters ~floor net ~f ~d
  in
  let attempt_extended ?budget f pool =
    Counters.timed counters `Division @@ fun () ->
    Counters.add counters.Counters.divisions_attempted 1;
    Extended_division.try_run ~gdc ~learn_depth ?budget ~counters
      ?dc:config.dc net ~f ~pool
    |> Option.map (fun outcome ->
           Log.debug (fun m ->
               m "extended division on %s: core of %d cube(s), gain %d"
                 (Network.name net f) outcome.Extended_division.core_cubes
                 outcome.Extended_division.literal_gain);
           `Ext)
  in
  fun f task ->
    let budget = fresh_budget () in
    let t0 = if Trace.enabled trace then Unix.gettimeofday () else 0.0 in
    let landed =
      match task with
      | Ext pool -> attempt_extended ?budget f pool
      | Div d ->
        (* POS runs only when the basic unit committed nothing, so the
           floor still describes [f]. *)
        let floor = unit_floor net ~f ~d in
        if attempt_basic ~floor ?budget f d then Some `Basic
        else if attempt_pos ~floor f d then Some `Pos
        else None
    in
    let kind = match task with Ext _ -> "ext" | Div _ -> "div" in
    (match budget with
    | Some b -> (
      match Budget.exhausted b with
      | Some reason ->
        Log.info (fun m ->
            m "budget exhausted (%s) on %s: degraded to algebraic result"
              (Budget.reason_to_string reason) (Network.name net f));
        Trace.emit trace "degrade"
          [
            ("node", Trace.String (Network.name net f));
            ("unit", Trace.String kind);
            ("reason", Trace.String (Budget.reason_to_string reason));
          ]
      | None -> ())
    | None -> ());
    if Trace.enabled trace then
      Trace.emit trace "unit"
        [
          ("node", Trace.String (Network.name net f));
          ("unit", Trace.String kind);
          ("committed", Trace.Bool (Option.is_some landed));
          ("seconds", Trace.Float (Unix.gettimeofday () -. t0));
        ];
    landed

let run ?(config = extended_config) ?fault_fuel ?deadline_at
    ?(trace = Trace.disabled) ?counters net =
  let counters =
    match counters with Some c -> c | None -> Counters.create ()
  in
  let sigs = Signature.create ~seed:config.sim_seed ?dc:config.dc net in
  Fun.protect ~finally:(fun () -> Signature.detach sigs)
  @@ fun () ->
  let literals_before = Lit_count.factored net in
  let basic_count = ref 0 and ext_count = ref 0 and pos_count = ref 0 in
  let cones = (Network.cone net, Network.cone net) in
  let attempt_unit =
    make_attempts ~config ?fault_fuel ?deadline_at ~trace ~counters ~sigs net
  in
  let run_unit f u =
    match attempt_unit f u with
    | None -> false
    | Some kind ->
      incr
        (match kind with
        | `Basic -> basic_count
        | `Ext -> ext_count
        | `Pos -> pos_count);
      Counters.add counters.Counters.substitutions 1;
      true
  in
  let units_of divisors =
    (match config.mode with
    | Extended ->
      let pool = List.filteri (fun i _ -> i < config.max_pool) divisors in
      if pool <> [] then [ Ext pool ] else []
    | Basic -> [])
    @ List.map (fun d -> Div d) divisors
  in
  (* Run the ranked units of dividend [f] in order. *)
  let scan f =
    let landed = ref false in
    List.iter
      (fun u ->
        let alive =
          Network.mem net f
          && match u with Div d -> Network.mem net d | Ext _ -> true
        in
        if alive && run_unit f u then landed := true)
      (units_of
         (rank_divisors ~counters ~sigs ~cones net f
            ~use_complement:config.use_complement ~limit:config.max_divisors));
    !landed
  in
  Scheduler.run ~driver:"substitute"
    ~fields:
      [
        ( "mode",
          Trace.String
            (match config.mode with Basic -> "basic" | Extended -> "extended")
        );
      ]
    ~max_passes:config.max_passes ?deadline_at ~trace ~counters net scan;
  (* A materialised core divisor can be orphaned across passes: DC-powered
     removal empties its cover, then a later commit rewires the dividend
     away from it. A fanout-free constant-zero non-output node carries no
     literals but pollutes written BLIF, so drop them before reporting. *)
  let output_ids =
    List.fold_left
      (fun acc (_, id) -> Network.Node_set.add id acc)
      Network.Node_set.empty (Network.outputs net)
  in
  List.iter
    (fun id ->
      if
        (not (Network.Node_set.mem id output_ids))
        && Network.fanout_count net id = 0
        && Cover.cube_count (Network.cover net id) = 0
      then Network.remove_node net id)
    (Network.logic_ids net);
  {
    basic_substitutions = !basic_count;
    extended_substitutions = !ext_count;
    pos_substitutions = !pos_count;
    literals_before;
    literals_after = Lit_count.factored net;
    counters;
  }
