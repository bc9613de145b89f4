open Twolevel
module Network = Logic_network.Network
module Node_set = Network.Node_set

type wire =
  | Literal_wire of {
      node : Network.node_id;
      cube : int;
      lit : Literal.t;
    }
  | Cube_wire of { node : Network.node_id; cube : int }

type assignment =
  | Node of Network.node_id * bool
  | Cube of Network.node_id * int * bool

let all_wires net id =
  let cube_list = Cover.cubes (Network.cover net id) in
  List.concat
    (List.mapi
       (fun i cube ->
         Cube_wire { node = id; cube = i }
         :: List.map
              (fun lit -> Literal_wire { node = id; cube = i; lit })
              (Cube.literals cube))
       cube_list)

let wire_to_string net = function
  | Literal_wire { node; cube; lit } ->
    Printf.sprintf "literal %s in cube %d of %s"
      (Literal.to_string
         ~names:(fun v -> Network.name net (Network.fanins net node).(v))
         lit)
      cube (Network.name net node)
  | Cube_wire { node; cube } ->
    Printf.sprintf "cube %d of %s" cube (Network.name net node)

let cube_array net id = Array.of_list (Cover.cubes (Network.cover net id))

let wire_node = function
  | Literal_wire { node; _ } | Cube_wire { node; _ } -> node

(* Activation splits into a part shared by every wire of the same cube
   (the node's other cubes forced off) and a wire-local part; callers
   using {!Imply.checkpoint} assert the shared part once per cube and
   branch per wire, everyone else gets the concatenation below. *)
let cube_context_assignments net ~node ~cube =
  let cubes = cube_array net node in
  List.filter_map
    (fun i -> if i = cube then None else Some (Cube (node, i, false)))
    (List.init (Array.length cubes) Fun.id)

let local_activation_assignments net wire =
  match wire with
  | Literal_wire { node; cube; lit } ->
    let cubes = cube_array net node in
    let fanins = Network.fanins net node in
    let siblings =
      List.filter_map
        (fun l ->
          if Literal.equal l lit then None
          else Some (Node (fanins.(Literal.var l), Literal.is_pos l)))
        (Cube.literals cubes.(cube))
    in
    Node (fanins.(Literal.var lit), not (Literal.is_pos lit)) :: siblings
  | Cube_wire { node; cube } -> [ Cube (node, cube, true) ]

let wire_cube = function
  | Literal_wire { cube; _ } | Cube_wire { cube; _ } -> cube

let activation_assignments net wire =
  let node = wire_node wire in
  local_activation_assignments net wire
  @ cube_context_assignments net ~node ~cube:(wire_cube wire)

(* Nodes through which every path from [id] to a primary output passes.
   D(x) = {x} ∪ ⋂ over predecessors-in-TFO(id); result = ⋂ over
   output-driving nodes of the TFO. The cone order visits every TFO
   fanin of [x] before [x], so the fanins in TFO are exactly those with
   a [doms] entry. Any two dominators lie on one common path, so every
   topological order lists them in the same order, and the result
   equals the global [Network.topological] order filtered to them. *)
let dominators net id =
  let order = Network.fanout_cone_order net [ id ] in
  let doms = Hashtbl.create 16 in
  List.iter
    (fun x ->
      if x = id then Hashtbl.replace doms x (Node_set.singleton id)
      else begin
        let preds =
          List.filter_map (Hashtbl.find_opt doms)
            (Array.to_list (Network.fanins net x))
        in
        let inter =
          match preds with
          | [] -> Node_set.empty
          | first :: rest -> List.fold_left Node_set.inter first rest
        in
        Hashtbl.replace doms x (Node_set.add x inter)
      end)
    order;
  let exits = List.filter (fun x -> Network.is_output net x) order in
  let common =
    match exits with
    | [] -> Node_set.empty
    | first :: rest ->
      List.fold_left
        (fun acc e -> Node_set.inter acc (Hashtbl.find doms e))
        (Hashtbl.find doms first) rest
  in
  List.filter (fun x -> x <> id && Node_set.mem x common) order

(* Side-input requirements at dominator nodes. The fault effect enters a
   dominator [m] through the fanin variables whose driver lies in the
   fault's transitive fanout (the D-inputs). For [m]'s output to depend on
   the D-inputs it is mandatory that
   - every cube of [m] mentioning no D-input evaluates to 0, and
   - when exactly one cube mentions D-inputs, its non-D literals hold
     (otherwise that cube is dead and the effect is masked).
   On a single-cube (AND-like) or all-single-literal (OR-like) node this
   degenerates to the textbook non-controlling side values. *)
let propagation_assignments net id =
  let tfo = Network.transitive_fanout net [ id ] in
  let assignments = ref [] in
  let note a = assignments := a :: !assignments in
  List.iter
    (fun m ->
      let fanins = Network.fanins net m in
      let is_d_input lit = Node_set.mem fanins.(Literal.var lit) tfo in
      let cubes = Array.of_list (Cover.cubes (Network.cover net m)) in
      let with_d, without_d =
        List.partition
          (fun i -> List.exists is_d_input (Cube.literals cubes.(i)))
          (List.init (Array.length cubes) Fun.id)
      in
      List.iter (fun i -> note (Cube (m, i, false))) without_d;
      (match with_d with
      | [ i ] ->
        List.iter
          (fun lit ->
            if not (is_d_input lit) then
              note (Node (fanins.(Literal.var lit), Literal.is_pos lit)))
          (Cube.literals cubes.(i))
      | [] | _ :: _ :: _ -> ()))
    (dominators net id);
  List.rev !assignments

let inject net wire =
  let faulty = Network.copy net in
  (match wire with
  | Literal_wire { node; cube; lit } ->
    let cubes = Array.of_list (Cover.cubes (Network.cover faulty node)) in
    cubes.(cube) <- Cube.remove_literal lit cubes.(cube);
    Network.set_function faulty node ~fanins:(Network.fanins faulty node)
      (Cover.of_cubes (Array.to_list cubes))
  | Cube_wire { node; cube } ->
    let cubes = Cover.cubes (Network.cover faulty node) in
    Network.set_function faulty node ~fanins:(Network.fanins faulty node)
      (Cover.of_cubes (List.filteri (fun i _ -> i <> cube) cubes)));
  faulty

let find_test net wire =
  match Logic_sim.Equiv.check net (inject net wire) with
  | Logic_sim.Equiv.Equivalent -> None
  | Logic_sim.Equiv.Counterexample { assignment; _ } -> Some assignment

let assign engine = function
  | Node (id, v) -> Imply.assign_node engine id v
  | Cube (id, i, v) -> Imply.assign_cube engine id i v

let redundant_result ?(learn_depth = 0) ?region ?budget ?counters ?dc
    ?(extra = []) net wire =
  let faulty_node =
    match wire with Literal_wire { node; _ } | Cube_wire { node; _ } -> node
  in
  let frozen = Network.fanout_cone_order net [ faulty_node ] in
  let engine = Imply.create ?region ~frozen ?budget ?counters ?dc net in
  let assignments =
    activation_assignments net wire
    @ propagation_assignments net faulty_node
    @ extra
  in
  match
    List.iter (assign engine) assignments;
    if learn_depth > 0 then Imply.learn ~depth:learn_depth engine
  with
  | () -> Ok false
  | exception Imply.Conflict _ -> Ok true
  | exception Rar_util.Budget.Exhausted reason -> Error reason

let redundant ?learn_depth ?region ?budget ?counters ?dc ?extra net wire =
  match
    redundant_result ?learn_depth ?region ?budget ?counters ?dc ?extra net
      wire
  with
  | Ok verdict -> verdict
  | Error _ -> false
