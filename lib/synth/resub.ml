open Twolevel
module Network = Logic_network.Network
module Fanin_cache = Logic_network.Fanin_cache
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

let attempt_direct net ~f ~d =
  attempt net ~f ~d_cover:(Lift.cover net d) ~d_lit:(Literal.pos d)

let attempt_complement net ~f ~d =
  match Minimize.complement ~limit:complement_limit (Lift.cover net d) with
  | None -> false
  | Some d_not -> attempt net ~f ~d_cover:d_not ~d_lit:(Literal.neg d)

let try_substitute ?(use_complement = true) ?cache net ~f ~d =
  let depends_on () =
    match cache with
    | Some c -> Fanin_cache.depends_on c d ~on:f
    | None -> Network.depends_on net d f
  in
  not
    (f = d || Network.is_input net f || Network.is_input net d || depends_on ())
  && (attempt_direct net ~f ~d
     || (use_complement && attempt_complement net ~f ~d))

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
    ?(max_candidates = default_max_candidates) ?(max_passes = 4)
    ?(sim_seed = Signature.default_seed) ?(sim_words = Signature.default_words)
    ?deadline_at ?(trace = Trace.disabled) ?counters ?dc net
    =
  let counters =
    match counters with Some c -> c | None -> Counters.create ()
  in
  let cache = Fanin_cache.create net in
  let sigs =
    if use_filter then
      Some (Signature.create ~seed:sim_seed ~words:sim_words ?dc net)
    else None
  in
  Fun.protect ~finally:(fun () -> Option.iter Signature.detach sigs)
  @@ fun () ->
  (* Algebraic attempts never add or remove nodes, so the candidate
     order of the unfiltered scan is fixed for the whole run. *)
  let nodes = List.sort Int.compare (Network.logic_ids net) in
  let substitutions = ref 0 in
  let pair_attempt f d =
    Counters.timed counters `Division @@ fun () ->
    Counters.add counters.Counters.divisions_attempted 1;
    try_substitute ~use_complement ~cache net ~f ~d
  in
  let scan f =
    let landed = ref false in
    List.iter
      (fun d ->
        if Network.mem net f && Network.mem net d && pair_attempt f d then begin
          landed := true;
          incr substitutions;
          Counters.add counters.Counters.substitutions 1
        end)
      (candidates ~counters ~cache ?sigs ~use_complement ~max_candidates net
         ~f ~nodes);
    !landed
  in
  Scheduler.run ~driver:"resub" ~max_passes ?deadline_at ~trace
    ~counters net scan;
  !substitutions
