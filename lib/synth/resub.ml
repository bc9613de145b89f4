open Twolevel
module Network = Logic_network.Network
module Fanin_cache = Logic_network.Fanin_cache
module Division_memo = Booldiv.Division_memo
module Scheduler = Booldiv.Scheduler
module Lit_count = Logic_network.Lit_count
module Signature = Logic_sim.Signature
module Counters = Rar_util.Counters
module Trace = Rar_util.Trace

let complement_limit = 64

let default_max_candidates = 32

(* One algebraic division attempt of f by the given lifted divisor cover,
   substituting the literal [d_lit] for it on success. *)
let attempt net ~f ~d_cover ~d_lit =
  let f_cover = Lift.cover net f in
  let q, r = Algebraic.divide f_cover d_cover in
  if Cover.is_zero q then false
  else begin
    let d_single = Cover.of_cubes [ Cube.of_literals_exn [ d_lit ] ] in
    let rebuilt = Cover.union (Cover.product q d_single) r in
    let before_cover = Network.cover net f in
    let before_fanins = Network.fanins net f in
    let before_lits = Lit_count.node_factored net f in
    match Lift.set_cover net f rebuilt with
    | exception Network.Cyclic _ -> false
    | () ->
      if Lit_count.node_factored net f < before_lits then true
      else begin
        Network.set_function net f ~fanins:before_fanins before_cover;
        false
      end
  end

(* Structural rejection shared by the plain and the memoised paths: a
   pair passing it is safe to attempt in either polarity. *)
let pair_guarded ?cache net ~f ~d =
  let depends_on d f =
    match cache with
    | Some c -> Fanin_cache.depends_on c d ~on:f
    | None -> Network.depends_on net d f
  in
  f = d || Network.is_input net f || Network.is_input net d || depends_on d f

let attempt_direct net ~f ~d =
  attempt net ~f ~d_cover:(Lift.cover net d) ~d_lit:(Literal.pos d)

let attempt_complement net ~f ~d =
  match Minimize.complement ~limit:complement_limit (Lift.cover net d) with
  | None -> false
  | Some d_not -> attempt net ~f ~d_cover:d_not ~d_lit:(Literal.neg d)

let try_substitute ?(use_complement = true) ?cache net ~f ~d =
  if pair_guarded ?cache net ~f ~d then false
  else if attempt_direct net ~f ~d then true
  else if use_complement then attempt_complement net ~f ~d
  else false

(* Candidate divisors for one dividend. Unfiltered (the seed behaviour)
   every logic node is tried in id order; with the signature engine,
   incompatible pairs are dropped and the survivors are ranked by
   signature overlap, keeping the top [max_candidates]. *)
let candidates ~counters ~cache ?sigs ~use_complement ~max_candidates net
    ~f ~nodes =
  match sigs with
  | None -> nodes
  | Some s ->
    Counters.timed counters `Filter @@ fun () ->
    let scored =
      List.filter_map
        (fun d ->
          if d = f || not (Network.mem net d) then None
          else begin
            Counters.add counters.Counters.pairs_considered 1;
            if
              Fanin_cache.depends_on cache d ~on:f
              || not (Signature.compatible s ~use_complement ~f ~d)
            then begin
              Counters.add counters.Counters.pairs_filtered 1;
              None
            end
            else Some (d, Signature.score s ~use_complement ~f ~d)
          end)
        nodes
    in
    let sorted = List.sort (fun (_, a) (_, b) -> Int.compare b a) scored in
    List.filteri (fun i _ -> i < max_candidates) (List.map fst sorted)

let run ?(use_complement = true) ?(use_filter = true)
    ?(max_candidates = default_max_candidates) ?(max_passes = 4) ?(jobs = 1)
    ?(sim_seed = Signature.default_seed) ?(sim_words = Signature.default_words)
    ?(use_memo = true) ?deadline_at ?(trace = Trace.disabled) ?counters ?dc net
    =
  let counters =
    match counters with Some c -> c | None -> Counters.create ()
  in
  let signatures net =
    if use_filter then
      Some (Signature.create ~seed:sim_seed ~words:sim_words ?dc net)
    else None
  in
  let cache = Fanin_cache.create net in
  let sigs = signatures net in
  Fun.protect ~finally:(fun () -> Option.iter Signature.detach sigs)
  @@ fun () ->
  (* Algebraic attempts never add or remove nodes, so the candidate
     order of the unfiltered scan is fixed for the whole run. *)
  let nodes = List.sort Int.compare (Network.logic_ids net) in
  let substitutions = ref 0 in
  (* An algebraic attempt reads only the two lifted covers — cover and
     fanin array of [f] and of [d] ({!Lift.cover}) — and any change to
     either stamps the node itself, so {f, d} is the whole read set.
     The structural guard (cycle check over the fanin cone) is
     re-evaluated live before every replay, so it needs no stamps. *)
  let pair_reads f d () =
    Division_memo.reads_of_set
      (Network.Node_set.add f (Network.Node_set.singleton d))
  in
  let client memo =
    (* One pair against [net] — the live network or a worker's snapshot —
       with each polarity going through the memo's per-unit protocol.
       Failures a worker records land in the shared table at the frozen
       clock: true facts even if its whole scan is later discarded. *)
    let pair_attempt ~live ~cache ~counters:c net f d =
      match memo with
      | None ->
        Counters.timed c `Division @@ fun () ->
        Counters.add c.Counters.divisions_attempted 1;
        try_substitute ~use_complement ~cache net ~f ~d
      | Some m ->
        if pair_guarded ~cache net ~f ~d then begin
          Counters.add c.Counters.divisions_attempted 1;
          false
        end
        else begin
          let ran = ref false in
          let phase ph real =
            Division_memo.attempt m net ~live ~counters:c ~f
              (Division_memo.Divisor (d, ph))
              ~meth:Division_memo.Algebraic ~reads:(pair_reads f d) (fun () ->
                ran := true;
                Counters.timed c `Division real)
          in
          let ok =
            phase Division_memo.Pos (fun () -> attempt_direct net ~f ~d)
            || use_complement
               && phase Division_memo.Neg (fun () ->
                      attempt_complement net ~f ~d)
          in
          if !ran then Counters.add c.Counters.divisions_attempted 1;
          ok
        end
    in
    let scan_on ~live ~cache ?sigs ~counters ~first_only net f =
      let landed = ref false in
      List.iter
        (fun d ->
          if
            (not (first_only && !landed))
            && Network.mem net f && Network.mem net d
            && pair_attempt ~live ~cache ~counters net f d
          then begin
            landed := true;
            if live then begin
              incr substitutions;
              Counters.add counters.Counters.substitutions 1
            end
          end)
        (candidates ~counters ~cache ?sigs ~use_complement ~max_candidates net
           ~f ~nodes);
      if !landed then Scheduler.Committed else Scheduler.Quiet
    in
    (* Candidate selection reads every node's signature with no structural
       gate, so a worker's verdict has no bounded read closure. *)
    let speculate snap wc f =
      let wsigs = signatures snap in
      Fun.protect ~finally:(fun () -> Option.iter Signature.detach wsigs)
      @@ fun () ->
      ( scan_on ~live:false ~cache:(Fanin_cache.create snap) ?sigs:wsigs
          ~counters:wc ~first_only:true snap f,
        Scheduler.Unbounded )
    in
    {
      Scheduler.bounded = false;
      scan = scan_on ~live:true ~cache ?sigs ~counters ~first_only:false net;
      speculate;
    }
  in
  Scheduler.run ~driver:"resub" ~jobs ~use_memo ~max_passes ?deadline_at
    ~trace ~counters net client;
  !substitutions
