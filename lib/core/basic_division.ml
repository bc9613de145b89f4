open Twolevel
module Network = Logic_network.Network
module Lift = Logic_network.Lift
module Collapse = Logic_network.Collapse
module Lit_count = Logic_network.Lit_count

type outcome = {
  quotient_literals : int;
  wires_removed : int;
  literal_gain : int;
  degraded : bool;
}

let complement_limit = 128

(* The divisor cubes the SOS test runs against: [d]'s own cubes for a
   positive-phase division, the cubes of its complement for a
   negative-phase one (so [f = q·d' + r] can be discovered too, matching
   the [-d] flavour of SIS resubstitution). *)
let divisor_cubes net ~d ~phase =
  if phase then Some (Cover.cubes (Network.cover net d))
  else
    Option.map Cover.cubes
      (Complement.cover_limited ~limit:complement_limit (Network.cover net d))

(* SOS sets are decided in [f]'s own fanin slots: [d]'s cubes are
   carried into them ([Lift.carry]), and nothing is lifted into node-id
   space. *)
let sos_cube_indices net ~f ~d ~phase =
  let f_cubes = Cover.cubes (Network.cover net f) in
  let map = Lift.slot_map net ~src:d ~dst:f in
  (* A cube inside a cube of d' is disjoint from every cube of d, so
     when no cube of f is, the SOS list is empty whatever d' is, and the
     complement is never taken. *)
  let may_divide =
    phase
    ||
    let d_cubes = Cover.cubes (Network.cover net d) in
    List.exists
      (fun c -> List.for_all (Lift.opposes map ~into:c) d_cubes)
      f_cubes
  in
  match if may_divide then divisor_cubes net ~d ~phase else None with
  | None -> []
  | Some cubes -> (
    match List.filter_map (Lift.carry map) cubes with
    | [] -> []
    | ks ->
      List.concat
        (List.mapi
           (fun i c ->
             if List.exists (Cube.contained_by c) ks then [ i ] else [])
           f_cubes))

(* The SOS cube indices of [f] when the pair may be divided at all, [[]]
   when it may not. *)
let f1_indices ?(phase = true) net ~f ~d =
  if
    f <> d
    && (not (Network.is_input net f))
    && (not (Network.is_input net d))
    && not (Network.depends_on net d f)
  then sos_cube_indices net ~f ~d ~phase
  else []

let region_nodes net seeds =
  List.concat_map
    (fun id -> id :: Array.to_list (Network.fanins net id))
    seeds

(* The arena of [region_nodes [f; d; q]] reads the covers of [f], [d],
   [q] and their fanins, and treats the fanins' fanins as free unless
   their covers are syntactically constant. Every assignment of the
   fanins of [f] and [d] is one of the region's when each logic fanin
   is a non-constant function of fanins no other region node reads; with
   no dominator past [f] no side input is forced either (DESIGN §19.10).
   A view binding no EXCDC cube to an input gives the arena nothing. *)
let exact_region ?(gdc = false) ?budget ?dc net ~f ~d =
  (not gdc) && budget = None
  && (match dc with
     | None -> true
     | Some view ->
       Logic_network.Dont_care.bind view (Network.find_input net) = [])
  &&
  let fanins = Array.append (Network.fanins net f) (Network.fanins net d) in
  let logic =
    List.sort_uniq Int.compare
      (List.filter
         (fun g -> not (Network.is_input net g))
         (Array.to_list fanins))
  in
  List.for_all
    (fun g ->
      let cubes = Cover.cubes (Network.cover net g) in
      cubes <> [] && not (Tautology.check cubes))
    logic
  && (let seen =
        ref (Array.fold_right Network.Node_set.add fanins
               (Network.Node_set.of_list [ f; d ]))
      in
      List.for_all
        (fun g ->
          Array.for_all
            (fun x ->
              (not (Network.Node_set.mem x !seen))
              && begin
                seen := Network.Node_set.add x !seen;
                Network.is_input net x
                ||
                let c = Network.cover net x in
                not (Cover.is_zero c || Cover.is_one c)
              end)
            (Network.fanins net g))
        logic)
  && Atpg.Fault.dominators net f = []

let divide ?(phase = true) ?(gdc = false) ?(learn_depth = 0) ?budget ?counters
    ?dc ?f1 net ~f ~d =
  let f1_idx =
    match f1 with Some idx -> idx | None -> f1_indices ~phase net ~f ~d
  in
  if f1_idx = [] then None
  else
    Network.attempt net @@ fun () ->
    let f_cubes = Array.of_list (Cover.cubes (Network.cover net f)) in
    let f_fanins = Network.fanins net f in
    (* Partition the cubes in one pass over a membership array (f1_idx is
       a sparse index list, so List.mem per cube would be quadratic). *)
    let n = Array.length f_cubes in
    let in_f1 = Array.make n false in
    List.iter (fun i -> in_f1.(i) <- true) f1_idx;
    let f1_rev = ref [] and r_rev = ref [] in
    for i = n - 1 downto 0 do
      if in_f1.(i) then f1_rev := f_cubes.(i) :: !f1_rev
      else r_rev := f_cubes.(i) :: !r_rev
    done;
    let f1_cubes = Cover.of_cubes !f1_rev in
    let r_cubes = !r_rev in
    (* Materialise the paper's Fig. 2(c): a quotient node for f1 and the
       bold AND as the cube {quotient, d^phase} inside f. Redundant by
       Lemma 1 — no redundancy test needed. *)
    let q_node =
      Network.add_logic net
        ~name:(Network.name net f ^ "_q")
        ~fanins:f_fanins f1_cubes
    in
    let combined = Array.append f_fanins [| q_node; d |] in
    let base = Array.length f_fanins in
    let bold_and =
      Cube.of_literals_exn
        [ Literal.pos base; Literal.make (base + 1) phase ]
    in
    Network.set_function net f ~fanins:combined
      (Cover.of_cubes (bold_and :: r_cubes));
    (* Redundancy removal confined to the quotient node's wires. *)
    let region =
      if gdc then None else Some (region_nodes net [ f; d; q_node ])
    in
    let learn_depth = if learn_depth > 0 then Some learn_depth else None in
    let removed =
      Rewiring.Remove.run ?region ?learn_depth ?budget ?counters ?dc
        ~node_filter:(fun n -> n = q_node)
        net
    in
    (* When the budget ran out, the removal loop stopped early and the
       quotient is simply less shrunk — in the limit, the untouched [f1]
       partition, i.e. the plain algebraic quotient. Division still
       completes; the result is correct, just weaker. *)
    let degraded =
      match budget with
      | Some b -> Rar_util.Budget.exhausted b <> None
      | None -> false
    in
    let quotient_literals = Cover.literal_count (Network.cover net q_node) in
    (* Fold the quotient node back into f so f stays one SOP node; on a
       composition blow-up the attempt rolls the restructuring back. *)
    if Collapse.collapse_into_fanouts net q_node then
      Some
        { quotient_literals; wires_removed = removed; literal_gain = 0;
          degraded }
    else None

let try_divide ?phase ?gdc ?learn_depth ?budget ?counters ?dc ?f1 net ~f ~d =
  Network.attempt net @@ fun () ->
  Option.bind
    (divide ?phase ?gdc ?learn_depth ?budget ?counters ?dc ?f1 net ~f ~d)
    (fun outcome ->
      let gain = Lit_count.attempt_gain net in
      if gain > 0 then Some { outcome with literal_gain = gain } else None)
