open Twolevel

(* A node's fanins are distinct (Network.normalise), so the renaming
   is injective. *)
let cube_over fanins = Cube.rename (Array.get fanins)

let cube net id = cube_over (Network.fanins net id)

let cubes net id =
  List.map
    (cube_over (Network.fanins net id))
    (Cover.cubes (Network.cover net id))

let cover net id =
  let fanins = Network.fanins net id in
  Cover.map_vars (fun v -> fanins.(v)) (Network.cover net id)

(* The fanins a node-id cover becomes a node over (its sorted support)
   and the cover renumbered to their slots. *)
let to_slots lifted =
  let fanins = Array.of_list (Cover.support lifted) in
  let slot = Hashtbl.create 8 in
  Array.iteri (fun i node -> Hashtbl.replace slot node i) fanins;
  (fanins, Cover.map_vars (Hashtbl.find slot) lifted)

let set_cover net id lifted =
  let fanins, cover = to_slots lifted in
  Network.set_function net id ~fanins cover

(* [set_function] stores exactly [Network.normalise]'s pair, so its
   count is the count a commit would leave: a losing cover is rejected
   before the network, or its revision, moves. *)
let set_function_if_cheaper net id ~below ~fanins cover =
  Factor.count (snd (Network.normalise ~fanins ~cover)) < below
  &&
  match Network.set_function net id ~fanins cover with
  | exception Network.Cyclic _ -> false
  | () -> true

let set_cover_if_cheaper net id ~below lifted =
  let fanins, cover = to_slots lifted in
  set_function_if_cheaper net id ~below ~fanins cover

let add net ?name lifted =
  let fanins, cover = to_slots lifted in
  Network.add_logic net ?name ~fanins cover

let slot_map net ~src ~dst =
  let dst_fanins = Network.fanins net dst in
  Array.map
    (fun x ->
      match Array.find_index (Int.equal x) dst_fanins with
      | Some i -> i
      | None -> -1)
    (Network.fanins net src)

let carry map k =
  if Cube.fold_literals (fun ok l -> ok && map.(Literal.var l) >= 0) true k
  then Some (Cube.rename (Array.get map) k)
  else None

let opposes map ~into:c k =
  Cube.fold_literals
    (fun acc l ->
      acc
      ||
      let v = map.(Literal.var l) in
      v >= 0 && Cube.mem (Literal.make v (not (Literal.is_pos l))) c)
    false k
