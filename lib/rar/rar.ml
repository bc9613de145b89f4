open Twolevel
module Network = Logic_network.Network
module Lit_count = Logic_network.Lit_count
module Signature = Logic_sim.Signature

type stats = {
  additions_tried : int;
  additions_kept : int;
  wires_removed : int;
  literals_saved : int;
}

(* Index of [source] inside [node]'s fanins after extending them. *)
let cube_with_literal net ~node ~cube ~source ~phase =
  let fanins = Network.fanins net node in
  let cubes = Array.of_list (Cover.cubes (Network.cover net node)) in
  let slot =
    match Array.to_list fanins |> List.find_index (Int.equal source) with
    | Some v -> (`Old, v)
    | None -> (`New, Array.length fanins)
  in
  let kind, v = slot in
  let fanins' =
    match kind with `Old -> fanins | `New -> Array.append fanins [| source |]
  in
  match Cube.add_literal (Literal.make v phase) cubes.(cube) with
  | None -> None (* the opposite literal is already there *)
  | Some bigger ->
    if Cube.equal bigger cubes.(cube) then None (* already present *)
    else begin
      cubes.(cube) <- bigger;
      Some (fanins', Cover.of_cubes (Array.to_list cubes), bigger)
    end

let try_add_wire net ~node ~cube ~source ~phase =
  match
    if Network.depends_on net source node then None
    else cube_with_literal net ~node ~cube ~source ~phase
  with
  | None -> false
  | Some (fanins', cover', bigger) ->
    Option.is_some
      (Network.attempt net @@ fun () ->
       Network.set_function net node ~fanins:fanins' cover';
       (* Find the cube again (normalisation may reorder) and test the new
          literal wire for redundancy. *)
       let cubes = Cover.cubes (Network.cover net node) in
       match
         ( List.find_index (Cube.equal bigger) cubes,
           Array.find_index (Int.equal source) (Network.fanins net node) )
       with
       | Some i, Some v
         when Atpg.Fault.redundant net
                (Atpg.Fault.Literal_wire
                   { node; cube = i; lit = Literal.make v phase }) ->
         Some ()
       | _ -> None)

(* Candidate sources: nodes sharing transitive-fanin support with [node],
   nearest first, excluding anything that would create a cycle. [mine]
   takes TFI(node), and [theirs] each TFI(c) in turn: [c] depends on
   [node] iff its walk reaches [node]. *)
let candidate_sources net ~mine ~theirs node ~limit =
  Network.clear mine;
  ignore (Network.mark_fanin net mine [ node ]);
  let shared c =
    Network.clear theirs;
    List.fold_left
      (fun n id -> if Network.in_cone mine id then n + 1 else n)
      0
      (Network.mark_fanin net theirs [ c ])
  in
  let scored =
    List.filter_map
      (fun c ->
        if c = node then None
        else
          let n = shared c in
          if n = 0 || Network.in_cone theirs node then None else Some (c, n))
      (Network.logic_ids net)
  in
  Array.map fst (Signature.rank ~k:limit ~score:snd (Array.of_list scored))

(* One tentative RAR move: add the wire, run redundancy removal around
   it, keep the attempt only on literal gain. *)
let attempt_move net ~node ~cube ~source ~phase =
  Network.attempt net @@ fun () ->
  if not (try_add_wire net ~node ~cube ~source ~phase) then None
  else begin
    let neighbourhood = Network.cone net in
    ignore (Network.mark_fanout net neighbourhood [ source ]);
    ignore (Network.mark_fanin net neighbourhood [ node ]);
    let removed = Remove.run ~node_filter:(Network.in_cone neighbourhood) net in
    if Lit_count.attempt_gain net > 0 then Some removed else None
  end

let optimize ?(max_sources_per_node = 8) net =
  let tried = ref 0 and kept = ref 0 and removed = ref 0 in
  let lits_before = Lit_count.factored net in
  let mine = Network.cone net and theirs = Network.cone net in
  List.iter
    (fun node ->
      if Network.mem net node then begin
        let sources =
          candidate_sources net ~mine ~theirs node
            ~limit:max_sources_per_node
        in
        Array.iter
          (fun source ->
            if Network.mem net node && Network.mem net source then begin
              let ncubes = Cover.cube_count (Network.cover net node) in
              for i = 0 to ncubes - 1 do
                (* A kept move can shrink the cover, so the guard is
                   re-checked for every phase. *)
                List.iter
                  (fun phase ->
                    if
                      Network.mem net node
                      && i < Cover.cube_count (Network.cover net node)
                    then begin
                      incr tried;
                      match
                        attempt_move net ~node ~cube:i ~source ~phase
                      with
                      | Some r ->
                        incr kept;
                        removed := !removed + r
                      | None -> ()
                    end)
                  [ true; false ]
              done
            end)
          sources
      end)
    (Network.logic_ids net);
  let lits_after = Lit_count.factored net in
  {
    additions_tried = !tried;
    additions_kept = !kept;
    wires_removed = !removed;
    literals_saved = lits_before - lits_after;
  }
