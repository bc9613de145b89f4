open Twolevel
module Network = Logic_network.Network
module Lift = Logic_network.Lift
module Lit_count = Logic_network.Lit_count
module Lit_floor = Logic_network.Lit_floor

type outcome = {
  core_cubes : int;
  core_sources : int;
  expected_removals : int;
  decomposed_divisor : bool;
  literal_gain : int;
}

let distinct_sources core = List.sort_uniq Int.compare (List.map fst core)

(* Expose the core divisor as a node of [net]; returns the node and
   whether an existing divisor node was decomposed into core + rest. *)
let materialise_core net core =
  match distinct_sources core with
  | [ m ] when List.length core = Cover.cube_count (Network.cover net m) ->
    (* The whole node was chosen: plain basic division against m. *)
    (m, false)
  | [ m ] ->
    let m_fanins = Network.fanins net m in
    let m_cubes = Array.of_list (Cover.cubes (Network.cover net m)) in
    let selected = List.map snd core in
    let core_cover =
      Cover.of_cubes (List.map (fun j -> m_cubes.(j)) selected)
    in
    let g =
      Network.add_logic net
        ~name:(Network.fresh_name net (Network.name net m ^ "_core"))
        ~fanins:m_fanins core_cover
    in
    (* Decompose m = core + rest (the paper's divisor decomposition). *)
    let rest =
      List.filteri (fun j _ -> not (List.mem j selected))
        (Array.to_list m_cubes)
    in
    let slot = Array.length m_fanins in
    Network.set_function net m
      ~fanins:(Array.append m_fanins [| g |])
      (Cover.of_cubes (Cube.of_literals_exn [ Literal.pos slot ] :: rest));
    (g, true)
  | sources ->
    (* Cubes from several nodes: build a fresh node over the union of the
       referenced signals. *)
    let core_cover = Cover.of_cubes (List.map (Vote.lifter net) core) in
    let g = Lift.add net ~name:(Network.fresh_name net "core") core_cover in
    let global_cubes = Cover.cubes core_cover in
    (* Any source that contains the whole core as a subset of its own
       cubes can be decomposed around it too, so the new node is shared
       rather than duplicated logic. *)
    let decomposed = ref false in
    List.iter
      (fun m ->
        let m_cubes = Array.of_list (Cover.cubes (Network.cover net m)) in
        let m_globals = Array.of_list (Lift.cubes net m) in
        let inside c = Array.exists (Cube.equal c) m_globals in
        if List.for_all inside global_cubes then begin
          let rest =
            List.filteri
              (fun j _ ->
                not (List.exists (Cube.equal m_globals.(j)) global_cubes))
              (Array.to_list m_cubes)
          in
          let m_fanins = Network.fanins net m in
          let slot = Array.length m_fanins in
          Network.set_function net m
            ~fanins:(Array.append m_fanins [| g |])
            (Cover.of_cubes (Cube.of_literals_exn [ Literal.pos slot ] :: rest));
          decomposed := true
        end)
      sources;
    (g, !decomposed)

(* Some cube of [f] lies inside a cube of a pool node, decided in [f]'s
   fanin slots as {!Basic_division.f1_indices} decides it. *)
let may_vote net ~f ~pool =
  let f_cubes = Cover.cubes (Network.cover net f) in
  List.exists
    (fun m ->
      m <> f
      && (not (Network.is_input net m))
      &&
      let map = Lift.slot_map net ~src:m ~dst:f in
      List.exists
        (fun k ->
          match Lift.carry map k with
          | Some k -> List.exists (fun c -> Cube.contained_by c k) f_cubes
          | None -> false)
        (Cover.cubes (Network.cover net m)))
    pool

(* Whether dividing [f] by [d] can still leave the open attempt, which
   holds the materialised core, a positive total gain. [divide] changes
   only [f]: its quotient node is added and collapsed away again. The
   final [f] keeps every cube outside [f1], renamed injectively, except
   those the collapse's single-cube containment drops. A cube [q_i·d]
   the collapse adds contains a kept cube only when [q_i] is the top
   cube and the kept cube holds [d]'s literal, which needs [d] to be a
   fanin of [f] already. *)
let may_pay net ~f ~d ~f1 =
  let cover = Network.cover net f in
  let in_f1 = Array.make (Cover.cube_count cover) false in
  List.iter (fun i -> in_f1.(i) <- true) f1;
  let rest = List.filteri (fun i _ -> not in_f1.(i)) (Cover.cubes cover) in
  let absorber =
    Option.map Literal.pos (Array.find_index (( = ) d) (Network.fanins net f))
  in
  Lit_count.attempt_gain net + Factor.count cover
  - Lit_floor.remainder ?absorber rest
  > 0

let try_run ?gdc ?learn_depth ?budget ?counters ?dc net ~f ~pool =
  if not (may_vote net ~f ~pool) then None
  else begin
    (* [Vote.collect] and the clique search only read [net]; the network
       changes only inside the attempt that materialises a chosen core. *)
    let entries =
      Vote.collect ?gdc ?learn_depth ?budget ?counters ?dc net ~f ~pool
    in
    let valid = Array.of_list (Vote.valid_entries entries) in
    if Array.length valid = 0 then None
    else begin
      let candidates = Array.map (fun e -> e.Vote.candidates) valid in
      let lifted = Vote.lifter net in
      let serves v core =
        List.exists
          (fun pc -> Cube.contained_by valid.(v).Vote.wire_cube (lifted pc))
          core
      in
      match Clique.best_core ~candidates ~serves with
      | None -> None
      | Some { members; core } ->
        Network.attempt net @@ fun () ->
        let core_node, decomposed = materialise_core net core in
        let f1 = Basic_division.f1_indices net ~f ~d:core_node in
        if f1 = [] then
          (* Division refused after materialisation: reject the attempt. *)
          None
        else if not (may_pay net ~f ~d:core_node ~f1) then begin
          Option.iter
            (fun c -> Rar_util.Counters.add c.Rar_util.Counters.floor_rejects 1)
            counters;
          None
        end
        else if
          Option.is_none
            (Basic_division.divide ?gdc ?learn_depth ?budget ?counters ?dc ~f1
               net ~f ~d:core_node)
        then None
        else
          let gain = Lit_count.attempt_gain net in
          if gain > 0 then
            Some
              {
                core_cubes = List.length core;
                core_sources = List.length (distinct_sources core);
                expected_removals = List.length members;
                decomposed_divisor = decomposed;
                literal_gain = gain;
              }
          else None
    end
  end
