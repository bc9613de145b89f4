open Twolevel

let default_cube_limit = 512

(* Compose [fanin]'s cover into [node]'s cover. Both covers speak about
   their own fanin variable spaces; the result speaks about the union of
   node's other fanins and fanin's fanins. Returns the new (fanins, cover)
   without touching the network, or None on blow-up. *)
let composed_function ?(cube_limit = default_cube_limit) net ~node ~fanin =
  let node_fanins = Network.fanins net node in
  let var_of_fanin =
    Array.to_list node_fanins |> List.mapi (fun v f -> (f, v))
  in
  match List.assoc_opt fanin var_of_fanin with
  | None -> Some (node_fanins, Network.cover net node) (* nothing to do *)
  | Some v ->
    let g_cover = Network.cover net fanin in
    let g_fanins = Network.fanins net fanin in
    (* Combined fanin array: node's fanins (minus the slot being replaced
       keeps its position for simplicity) followed by g's fanins; the
       Network normalisation merges duplicates afterwards. *)
    let base = Array.length node_fanins in
    let combined = Array.append node_fanins g_fanins in
    let lift = Cover.map_vars (fun w -> base + w) g_cover in
    let f_cover = Network.cover net node in
    let uses phase =
      List.exists
        (fun cube -> Cube.mem (Literal.make v phase) cube)
        (Cover.cubes f_cover)
    in
    (* Unate fast path: when v occurs in a single phase, substitution is a
       per-cube product and no complement is needed:
       F[G/v] = Σ_{v ∈ cube} (cube \ v)·G + Σ_{v ∉ cube} cube. *)
    let unate_substitute g_lifted lit =
      let parts =
        List.map
          (fun cube ->
            if Cube.mem lit cube then
              Cover.product_cube (Cube.remove_literal lit cube) g_lifted
            else Cover.of_cubes [ cube ])
          (Cover.cubes f_cover)
      in
      List.fold_left Cover.union Cover.zero parts
    in
    let result =
      match (uses true, uses false) with
      | false, false -> Some f_cover
      | true, false -> Some (unate_substitute lift (Literal.pos v))
      | false, true -> (
        match Complement.cover_limited ~limit:cube_limit lift with
        | None -> None
        | Some lift' -> Some (unate_substitute lift' (Literal.neg v)))
      | true, true -> (
        match Complement.cover_limited ~limit:cube_limit lift with
        | None -> None
        | Some lift' ->
          let f1 = Cover.cofactor (Literal.pos v) f_cover in
          let f0 = Cover.cofactor (Literal.neg v) f_cover in
          Some (Cover.union (Cover.product f1 lift) (Cover.product f0 lift')))
    in
    begin
      match result with
      | None -> None
      | Some result ->
        if Cover.cube_count result > cube_limit then None
        else Some (combined, Cover.single_cube_containment result)
    end

(* Each fanout's composed function when [id] is collapsed into it, in
   fanout order, or None on blow-up. Reads the network only. *)
let plan ?cube_limit net id =
  if Network.is_input net id || Network.is_output net id then None
  else
    let rec compose = function
      | [] -> Some []
      | out :: rest -> (
        match composed_function ?cube_limit net ~node:out ~fanin:id with
        | None -> None
        | Some result ->
          Option.map (fun planned -> (out, result) :: planned) (compose rest))
    in
    compose (Network.fanouts net id)

let commit net id planned =
  List.iter
    (fun (out, (fanins, cover)) -> Network.set_function net out ~fanins cover)
    planned;
  Network.remove_node net id

let collapse_into_fanouts ?cube_limit net id =
  match plan ?cube_limit net id with
  | Some planned ->
    commit net id planned;
    true
  | None -> false

(* The flat literal change of committing [planned]. *)
let increase net id planned =
  List.fold_left
    (fun acc (out, (_, cover)) ->
      acc + Cover.literal_count cover
      - Cover.literal_count (Network.cover net out))
    (-Cover.literal_count (Network.cover net id))
    planned

let value net id = Option.map (increase net id) (plan net id)

(* Eliminate's candidates in pick order, value ascending, then id
   descending ({!Network.logic_ids} order), each with its plan. *)
module Picks = Map.Make (struct
  type t = int * Network.node_id

  let compare (v1, id1) (v2, id2) =
    match Int.compare v1 v2 with 0 -> Int.compare id2 id1 | c -> c
end)

let eliminate ?(threshold = 0) net =
  (* The least (value, id descending) is the node a fold over
     [logic_ids] picks, its first minimum. Eliminate adds no node, so
     the id-indexed arrays cover every node it meets. *)
  let value_at = Array.make (Network.id_limit net) None in
  let picks = ref Picks.empty in
  let seen = Array.make (Network.id_limit net) (-1) in
  let revalue round id =
    if seen.(id) <> round then begin
      seen.(id) <- round;
      Option.iter (fun v -> picks := Picks.remove (v, id) !picks) value_at.(id);
      value_at.(id) <- None;
      match if Network.mem net id then plan net id else None with
      | Some planned ->
        let v = increase net id planned in
        if v <= threshold then begin
          value_at.(id) <- Some v;
          picks := Picks.add (v, id) planned !picks
        end
      | None -> ()
    end
  in
  List.iter (revalue 0) (Network.logic_ids net);
  (* [value n] reads [n]'s cover, fanins and fanout list and each
     fanout's cover and fanins. A collapse of [id] rewrites [id]'s
     fanouts and removes [id], so only the fanouts, [id]'s fanins and
     the fanouts' fanins can read anything new, and until one of them
     is re-valued its plan is the one a collapse would compute. A
     fanout's new fanins are drawn from its old ones and [id]'s, so the
     nodes to re-value are all known before the collapse. *)
  let rec loop eliminated =
    match Picks.min_binding_opt !picks with
    | Some ((_, id), planned) ->
      let fanouts = Network.fanouts net id in
      let touched =
        (id :: fanouts)
        @ List.concat_map
            (fun n -> Array.to_list (Network.fanins net n))
            (id :: fanouts)
      in
      commit net id planned;
      List.iter (revalue (eliminated + 1)) touched;
      loop (eliminated + 1)
    | None -> eliminated
  in
  loop 0
