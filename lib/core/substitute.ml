open Twolevel
module Network = Logic_network.Network
module Fanin_cache = Logic_network.Fanin_cache
module Lit_count = Logic_network.Lit_count
module Lit_floor = Logic_network.Lit_floor
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
  use_filter : bool;
  max_divisors : int;
  max_pool : int;
  max_passes : int;
  jobs : int;
  sim_seed : int;
  sim_words : int;
  use_memo : bool;
  dc : Logic_network.Dont_care.t option;
}

let basic_config =
  {
    mode = Basic;
    gdc = false;
    learn_depth = 0;
    use_complement = true;
    try_pos = true;
    use_filter = true;
    max_divisors = 20;
    max_pool = 6;
    max_passes = 4;
    jobs = 1;
    sim_seed = Signature.default_seed;
    sim_words = Signature.default_words;
    use_memo = true;
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

(* Candidate divisors for a node. With a signature engine, candidates are
   gated on fanin-cone overlap plus signature compatibility and ranked by
   onset-overlap popcount; without one (the A/B baseline) the seed policy
   — rank by transitive-fanin intersection cardinality — is kept, served
   from the memoized cache. *)
let rank_divisors ~counters ~cache ?sigs net f ~use_complement ~limit =
  Counters.timed counters `Filter @@ fun () ->
  let f_support = Fanin_cache.transitive_fanin cache f in
  let scored =
    List.filter_map
      (fun d ->
        if d = f then None
        else begin
          Counters.add counters.Counters.pairs_considered 1;
          let reject () =
            Counters.add counters.Counters.pairs_filtered 1;
            None
          in
          if Fanin_cache.depends_on cache d ~on:f then reject ()
          else
            match sigs with
            | Some s ->
              if
                Network.Node_set.disjoint f_support
                  (Fanin_cache.transitive_fanin cache d)
                || not (Signature.compatible s ~use_complement ~f ~d)
              then reject ()
              else Some (d, Signature.score s ~use_complement ~f ~d)
            | None ->
              let overlap =
                Network.Node_set.cardinal
                  (Network.Node_set.inter f_support
                     (Fanin_cache.transitive_fanin cache d))
              in
              if overlap = 0 then reject () else Some (d, overlap)
        end)
      (Network.logic_ids net)
  in
  let sorted = List.sort (fun (_, a) (_, b) -> Int.compare b a) scored in
  List.filteri (fun i _ -> i < limit) (List.map fst sorted)

let pos_cube_limit = 64

(* POS substitution at the cover level: lift d into f's fanin space
   extended by d's other fanins, divide in product-of-sums form, and
   rebuild f's SOP cover as (q + d)·r with d as a literal. The identity
   is algebraic on covers, so no implication machinery is involved. The
   literal floor rejects most attempts before the complements are taken,
   and the gain is decided on the normalised cover the network would
   store, so a failing attempt never mutates it. *)
let substitute_pos ?counters net ~f ~d =
  if
    f = d
    || Network.is_input net f
    || Network.is_input net d
    || Network.depends_on net d f
  then false
  else begin
    let before_lits = Lit_count.node_factored net f in
    if Lit_floor.pos net ~f ~d >= before_lits then begin
      Option.iter (fun c -> Counters.add c.Counters.floor_rejects 1) counters;
      false
    end
    else begin
      let f_fanins = Network.fanins net f in
      let d_fanins = Network.fanins net d in
      (* f's fanins, then d's that f lacks, each in its own order. f's
         fanins are distinct, so each keeps its own slot. *)
      let slots = Hashtbl.create 16 and order = ref [] in
      let add x =
        if not (Hashtbl.mem slots x) then begin
          Hashtbl.add slots x (Hashtbl.length slots);
          order := x :: !order
        end
      in
      Array.iter add f_fanins;
      Array.iter add d_fanins;
      let combined = Array.of_list (List.rev !order) in
      let slot_of = Hashtbl.find slots in
      let d_lift =
        Cover.map_vars (fun v -> slot_of d_fanins.(v)) (Network.cover net d)
      in
      match
        Division.basic_pos ~complement_limit:pos_cube_limit
          ~f:(Network.cover net f) ~d:d_lift ()
      with
      | None -> false
      | Some { pos_quotient; pos_remainder } ->
        let d_slot = Array.length combined in
        let d_lit =
          Cover.of_cubes [ Cube.of_literals_exn [ Literal.pos d_slot ] ]
        in
        let rebuilt =
          Cover.product (Cover.union pos_quotient d_lit) pos_remainder
        in
        let fanins = Array.append combined [| d |] in
        Cover.cube_count rebuilt <= pos_cube_limit
        && Factor.count (snd (Network.normalise ~fanins ~cover:rebuilt))
           < before_lits
        &&
        (* [set_function] stores exactly [normalise]'s pair, and [d] does
           not depend on [f], so no cycle can form. *)
        match Network.set_function net f ~fanins rebuilt with
        | exception Network.Cyclic _ -> false
        | () -> true
    end
  end

(* One work unit of the greedy policy for a node f: the extended-division
   attempt over the pool, or one basic/POS attempt against a divisor. *)
type unit_task = Ext of Network.node_id list | Div of Network.node_id

(* The attempt functions, abstracted over the network they act on so the
   same code runs on the real network (sequentially, or to commit a
   speculative winner) and on private snapshots inside workers. [sigs]
   must belong to [net]; [committed] reports the substitution kind;
   [verbose] gates logging (workers stay silent — Logs is not
   domain-safe). *)
let make_attempts ~config ?fault_fuel ?deadline_at ~trace ~counters ~sigs
    ~committed ~verbose net =
  let gdc = config.gdc and learn_depth = config.learn_depth in
  (* Each work unit gets its own budget so one runaway division cannot
     starve the rest of the run; the wall deadline is shared (absolute).
     Fuel budgets are deterministic, so speculative snapshots and the
     committing re-execution make identical degradation decisions. *)
  let fresh_budget () =
    if fault_fuel = None && deadline_at = None then None
    else Some (Budget.create ?fuel:fault_fuel ?deadline_at ())
  in
  (* Per-phase signature gate: dividing f by d needs their onsets to
     meet; dividing by d' needs f's onset to meet d's offset. Checked
     lazily (signatures may have moved since ranking if an earlier
     attempt committed). *)
  let phase_possible f d phase =
    match sigs with
    | None -> true
    | Some s -> Signature.phase_compatible s ~phase ~f ~d
  in
  let attempt_basic ?budget f d =
    Counters.timed counters `Division @@ fun () ->
    Counters.add counters.Counters.divisions_attempted 1;
    let commit phase =
      phase_possible f d phase
      &&
      match
        Basic_division.try_divide ~phase ~gdc ~learn_depth ?budget ~counters
          ?dc:config.dc net ~f ~d
      with
      | Some outcome ->
        committed `Basic;
        if verbose then
          Log.debug (fun m ->
              m "basic division: %s / %s%s (+%d literals)"
                (Network.name net f) (Network.name net d)
                (if phase then "" else "'")
                outcome.Basic_division.literal_gain);
        true
      | None -> false
    in
    (* Combined rewrite f = q·d + q'·d' + r: each phase alone can be
       gain-neutral while the pair is profitable (both phases share the
       single literal cost of d). *)
    let commit_both () =
      phase_possible f d true && phase_possible f d false
      (* Without an SOS cube the first divide below returns [None]. *)
      && Basic_division.applicable net ~f ~d
      &&
      let scratch = Network.copy net in
      let first =
        Basic_division.divide ~gdc ~learn_depth ?budget ~counters
          ?dc:config.dc scratch ~f ~d
      in
      let second =
        Basic_division.divide ~phase:false ~gdc ~learn_depth ?budget
          ~counters ?dc:config.dc scratch ~f ~d
      in
      if
        first <> None && second <> None
        && Lit_count.factored_delta net scratch > 0
      then begin
        Network.overwrite net scratch;
        committed `Basic;
        true
      end
      else false
    in
    let direct = commit true in
    let complemented =
      if config.use_complement then commit false else false
    in
    if direct || complemented then true
    else if config.use_complement then commit_both ()
    else false
  in
  let attempt_pos f d =
    if not config.try_pos then false
    else
      Counters.timed counters `Division @@ fun () ->
      Counters.add counters.Counters.divisions_attempted 1;
      if substitute_pos ~counters net ~f ~d then begin
        committed `Pos;
        true
      end
      else false
  in
  let attempt_extended ?budget f pool =
    Counters.timed counters `Division @@ fun () ->
    Counters.add counters.Counters.divisions_attempted 1;
    match
      Extended_division.try_run ~gdc ~learn_depth ?budget ~counters
        ?dc:config.dc net ~f ~pool
    with
    | Some outcome ->
      committed `Ext;
      if verbose then
        Log.debug (fun m ->
            m "extended division on %s: core of %d cube(s), gain %d"
              (Network.name net f) outcome.Extended_division.core_cubes
              outcome.Extended_division.literal_gain);
      true
    | None ->
      if config.try_pos then begin
        match Pos_extended.try_run ~counters net ~f ~pool with
        | Some _ ->
          committed `Pos;
          true
        | None -> false
      end
      else false
  in
  fun f task ->
    let budget = fresh_budget () in
    let t0 = if Trace.enabled trace then Unix.gettimeofday () else 0.0 in
    let ok =
      match task with
      | Ext pool -> attempt_extended ?budget f pool
      | Div d -> if attempt_basic ?budget f d then true else attempt_pos f d
    in
    let kind = match task with Ext _ -> "ext" | Div _ -> "div" in
    (match budget with
    | Some b -> (
      match Budget.exhausted b with
      | Some reason ->
        if verbose then
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
          ("committed", Trace.Bool ok);
          ("seconds", Trace.Float (Unix.gettimeofday () -. t0));
        ];
    ok

let run ?(config = extended_config) ?fault_fuel ?deadline_at
    ?(trace = Trace.disabled) ?counters net =
  let counters =
    match counters with Some c -> c | None -> Counters.create ()
  in
  let signatures net =
    if config.use_filter then
      Some
        (Signature.create ~seed:config.sim_seed ~words:config.sim_words
           ?dc:config.dc net)
    else None
  in
  let cache = Fanin_cache.create net in
  let sigs = signatures net in
  Fun.protect ~finally:(fun () -> Option.iter Signature.detach sigs)
  @@ fun () ->
  let literals_before = Lit_count.factored net in
  let basic_count = ref 0 and ext_count = ref 0 and pos_count = ref 0 in
  let committed kind =
    (match kind with
    | `Basic -> incr basic_count
    | `Ext -> incr ext_count
    | `Pos -> incr pos_count);
    Counters.add counters.Counters.substitutions 1
  in
  let units_of divisors =
    (match config.mode with
    | Extended ->
      let pool = List.filteri (fun i _ -> i < config.max_pool) divisors in
      if pool <> [] then [ Ext pool ] else []
    | Basic -> [])
    @ List.map (fun d -> Div d) divisors
  in
  let rank ~counters ~cache ?sigs net f =
    rank_divisors ~counters ~cache ?sigs net f
      ~use_complement:config.use_complement ~limit:config.max_divisors
  in
  let client memo =
    (* Run the ranked units of dividend [f] in order against [net] — the
       live network, or a worker's private snapshot — through the memo's
       per-unit protocol; [first_only] stops at the first commit. What a
       Boolean unit can read: non-GDC implications are confined to the
       dividend/divisor region, but redundancy removal inside a division
       consults dominators and fault propagation across the dividend's
       transitive fanout, and the signature phase gates read both full
       fanin cones — so the bound is TFI(f) ∪ TFI(divisors) ∪ TFO(f).
       Under GDC the implication region is the whole network, so only a
       fully unchanged network proves a replay. *)
    let run_units ~live ~cache ~counters ~run_unit ~first_only net f divisors =
      (* TFI(f) ∪ TFO(f) is shared by every unit of the scan; a commit
         moves it. *)
      let base = ref None in
      let reads u () =
        if config.gdc then Division_memo.all_nodes
        else begin
          let b =
            match !base with
            | Some b -> b
            | None ->
              let b =
                Network.Node_set.union
                  (Fanin_cache.transitive_fanin cache f)
                  (Network.transitive_fanout net [ f ])
              in
              base := Some b;
              b
          in
          let cone d acc =
            Network.Node_set.union acc (Fanin_cache.transitive_fanin cache d)
          in
          Division_memo.reads_of_set
            (match u with
            | Div d -> cone d b
            | Ext pool -> List.fold_right cone pool b)
        end
      in
      let landed = ref false in
      List.iter
        (fun u ->
          let alive =
            (not (first_only && !landed))
            && Network.mem net f
            && match u with Div d -> Network.mem net d | Ext _ -> true
          in
          let attempt () =
            match memo with
            | None -> run_unit f u
            | Some m ->
              let target =
                match u with
                | Div d -> Division_memo.Divisor (d, Division_memo.Both)
                | Ext pool -> Division_memo.Pool pool
              in
              Division_memo.attempt m net ~live ~counters ~f target
                ~meth:Division_memo.Boolean ~reads:(reads u) (fun () ->
                  run_unit f u)
          in
          if alive && attempt () then begin
            landed := true;
            base := None
          end)
        (units_of divisors);
      if !landed then Scheduler.Committed else Scheduler.Quiet
    in
    let run_unit =
      make_attempts ~config ?fault_fuel ?deadline_at ~trace ~counters ~sigs
        ~committed ~verbose:true net
    in
    let scan f =
      run_units ~live:true ~cache ~counters ~run_unit ~first_only:false net f
        (rank ~counters ~cache ?sigs net f)
    in
    (* A worker builds its own cache and signature engine on its snapshot
       and runs silent: no trace, no commit tallies, no logging. *)
    let speculate snap wc f =
      let wcache = Fanin_cache.create snap in
      let wsigs = signatures snap in
      Fun.protect ~finally:(fun () -> Option.iter Signature.detach wsigs)
      @@ fun () ->
      let divisors = rank ~counters:wc ~cache:wcache ?sigs:wsigs snap f in
      (* The dividend's structural footprint (ranking rejections stay
         inside it) plus the ranked divisors' fanin cones, which units and
         phase gates read. GDC implications and the unfiltered ranking
         read the whole network. *)
      let reads =
        if config.gdc || wsigs = None then Scheduler.Unbounded
        else
          Scheduler.Set
            (List.fold_left
               (fun acc d ->
                 Network.Node_set.union acc
                   (Fanin_cache.transitive_fanin wcache d))
               (Partition.footprint snap f) divisors)
      in
      let run_unit =
        make_attempts ~config ?fault_fuel ?deadline_at ~trace:Trace.disabled
          ~counters:wc ~sigs:wsigs
          ~committed:(fun _ -> ())
          ~verbose:false snap
      in
      ( run_units ~live:false ~cache:wcache ~counters:wc ~run_unit
          ~first_only:true snap f divisors,
        reads )
    in
    { Scheduler.bounded = config.use_filter && not config.gdc; scan; speculate }
  in
  Scheduler.run ~driver:"substitute"
    ~fields:
      [
        ( "mode",
          Trace.String
            (match config.mode with Basic -> "basic" | Extended -> "extended")
        );
      ]
    ~jobs:config.jobs ~use_memo:config.use_memo ~max_passes:config.max_passes
    ?deadline_at ~trace ~counters net client;
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
