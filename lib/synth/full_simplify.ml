open Twolevel
module Network = Logic_network.Network
module Lit_count = Logic_network.Lit_count

let complement_limit = 64

let dc_cube_limit = 128

(* Existential quantification of a cover over a variable set: drop the
   quantified literals from every cube. *)
let smooth hidden cover =
  Cover.of_cubes
    (List.map
       (fun cube ->
         List.fold_left (fun c v -> Cube.remove_var v c) cube hidden)
       (Cover.cubes cover))

(* Don't cares of node [n] from one logic fanin [g]: combinations of the
   variable g and the n-visible part of g's support that can never occur.
   Fanins of g that n cannot see are quantified away:
     g = 1 is impossible whenever  ∃hidden G  is false,
     g = 0 is impossible whenever  ∀hidden G  is true. *)
let fanin_dc net n_fanins ~slot g =
  if Network.is_input net g then None
  else begin
    let g_fanins = Network.fanins net g in
    let slot_of id = Array.to_list n_fanins |> List.find_index (Int.equal id) in
    let slots = Array.map slot_of g_fanins in
    (* Temporary variable space: visible fanins use their slot in n,
       hidden fanins get fresh variables past n's arity. *)
    let base = Array.length n_fanins in
    let hidden = ref [] in
    let mapping =
      Array.mapi
        (fun v s ->
          match s with
          | Some slot -> slot
          | None ->
            let fresh = base + v in
            hidden := fresh :: !hidden;
            fresh)
        slots
    in
    let g_mixed = Cover.map_vars (fun v -> mapping.(v)) (Network.cover net g) in
    let exists_g = smooth !hidden g_mixed in
    let forall_g =
      match Complement.cover_limited ~limit:complement_limit g_mixed with
      | None -> Cover.zero (* conservative: no ∀ information *)
      | Some g_not -> (
        match
          Complement.cover_limited ~limit:complement_limit
            (smooth !hidden g_not)
        with
        | None -> Cover.zero
        | Some c -> c)
    in
    match Complement.cover_limited ~limit:complement_limit exists_g with
    | None -> None
    | Some never_one ->
      let v_pos = Cover.of_cubes [ Cube.of_literals_exn [ Literal.pos slot ] ] in
      let v_neg = Cover.of_cubes [ Cube.of_literals_exn [ Literal.neg slot ] ] in
      let dc =
        Cover.union
          (Cover.product v_pos never_one)
          (Cover.product v_neg forall_g)
      in
      if Cover.is_zero dc then None else Some dc
  end

let node_dc net id =
  let fanins = Network.fanins net id in
  let dc = ref Cover.zero in
  Array.iteri
    (fun slot g ->
      if Cover.cube_count !dc < dc_cube_limit then
        match fanin_dc net fanins ~slot g with
        | Some extra -> dc := Cover.union !dc extra
        | None -> ())
    fanins;
  if Cover.cube_count !dc > dc_cube_limit then Cover.zero else !dc

(* An equal count is kept too. *)
let node net id =
  let dc = node_dc net id in
  if Cover.is_zero dc then Simplify.node net id
  else
    let before = Network.cover net id in
    let after = Minimize.simplify ~dc before in
    (not (Cover.equal before after))
    && Logic_network.Lift.set_function_if_cheaper net id
         ~below:(Lit_count.node_factored net id + 1)
         ~fanins:(Network.fanins net id) after

let run net =
  List.fold_left
    (fun acc id -> if node net id then acc + 1 else acc)
    0 (Network.logic_ids net)
