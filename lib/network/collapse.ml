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

let collapse_into_fanouts ?cube_limit net id =
  if Network.is_input net id || Network.is_output net id then false
  else begin
    let fanouts = Network.fanouts net id in
    (* Dry-run all compositions first so failure leaves the net intact. *)
    let planned =
      List.map
        (fun out -> (out, composed_function ?cube_limit net ~node:out ~fanin:id))
        fanouts
    in
    if List.exists (fun (_, r) -> r = None) planned then false
    else begin
      List.iter
        (fun (out, result) ->
          match result with
          | Some (fanins, cover) -> Network.set_function net out ~fanins cover
          | None -> assert false)
        planned;
      Network.remove_node net id;
      true
    end
  end

let value net id =
  if Network.is_input net id || Network.is_output net id then None
  else
    match Network.fanouts net id with
    | [] -> Some (-Cover.literal_count (Network.cover net id))
    | fanouts ->
      let before =
        List.fold_left
          (fun acc out -> acc + Cover.literal_count (Network.cover net out))
          (Cover.literal_count (Network.cover net id))
          fanouts
      in
      let after =
        List.fold_left
          (fun acc out ->
            match acc with
            | None -> None
            | Some total ->
              (match composed_function net ~node:out ~fanin:id with
              | None -> None
              | Some (_, cover) -> Some (total + Cover.literal_count cover)))
          (Some 0) fanouts
      in
      Option.map (fun after -> after - before) after

(* Everything [value] reads for a logic node that is not an output: its
   cover and fanins, its fanout list, and each fanout's cover and fanins.
   Covers are compared physically (a false miss only costs a recompute),
   fanins structurally: [Network.normalise] can keep a cover physically
   unchanged under new fanins. *)
type stamp = {
  cover : Cover.t;
  fanins : Network.node_id array;
  fanouts : (Network.node_id * Cover.t * Network.node_id array) list;
  value : int option;
}

let same_fanout (o1, c1, f1) (o2, c2, f2) = o1 = o2 && c1 == c2 && f1 = f2

let eliminate ?(threshold = 0) net =
  (* A collapse rewrites only the collapsed node's fanouts, so most
     stamps survive a round and their values are reused. *)
  let stamps = Hashtbl.create 64 in
  let stamped_value id =
    if Network.is_input net id || Network.is_output net id then None
    else begin
      let cover = Network.cover net id and fanins = Network.fanins net id in
      let fanouts =
        List.map
          (fun out -> (out, Network.cover net out, Network.fanins net out))
          (Network.fanouts net id)
      in
      match Hashtbl.find_opt stamps id with
      | Some s
        when s.cover == cover && s.fanins = fanins
             && List.equal same_fanout s.fanouts fanouts ->
        s.value
      | _ ->
        let v = value net id in
        Hashtbl.replace stamps id { cover; fanins; fanouts; value = v };
        v
    end
  in
  let eliminated = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let best =
      List.fold_left
        (fun best id ->
          match stamped_value id with
          | Some v when v <= threshold -> (
            match best with
            | Some (_, bv) when bv <= v -> best
            | _ -> Some (id, v))
          | Some _ | None -> best)
        None (Network.logic_ids net)
    in
    match best with
    | Some (id, _) when collapse_into_fanouts net id -> incr eliminated
    | Some _ | None -> continue_ := false
  done;
  !eliminated
