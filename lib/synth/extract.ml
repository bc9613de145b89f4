open Twolevel
module Network = Logic_network.Network
module Lift = Logic_network.Lift

module Cube_map = Map.Make (Cube)

(* --- gcx ---------------------------------------------------------- *)

(* Candidate common cubes: pairwise intersections of the lifted cubes of
   all logic nodes, kept when they have at least two literals. *)
let cube_candidates lifted_covers =
  let all_cubes = List.concat_map Cover.cubes lifted_covers in
  let arr = Array.of_list all_cubes in
  let n = Array.length arr in
  let add map c =
    if Cube.size c >= 2 then
      Cube_map.update c (fun x -> Some (Option.value x ~default:0 + 1)) map
    else map
  in
  let map = ref Cube_map.empty in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      map := add !map (Cube.common arr.(i) arr.(j))
    done
  done;
  Cube_map.bindings !map |> List.map fst

(* Literals saved by extracting cube [c]: each of the [occ] host cubes
   replaces |c| literals by one, and the new node costs |c| literals. *)
let cube_value ~occurrences ~size = (occurrences * (size - 1)) - size

let occurrences_of_cube lifted_covers c =
  List.fold_left
    (fun acc cover ->
      acc
      + List.length
          (List.filter (fun host -> Cube.contained_by host c) (Cover.cubes cover)))
    0 lifted_covers

let best_common_cube net =
  let nodes = Network.logic_ids net in
  let lifted = List.map (Lift.cover net) nodes in
  let candidates = cube_candidates lifted in
  List.fold_left
    (fun best c ->
      let occ = occurrences_of_cube lifted c in
      let value = cube_value ~occurrences:occ ~size:(Cube.size c) in
      match best with
      | Some (_, best_value) when best_value >= value -> best
      | _ when value > 0 -> Some (c, value)
      | _ -> best)
    None candidates

let extract_cube net c =
  let g =
    Lift.add net
      ~name:(Printf.sprintf "cx%d" (Network.node_count net))
      (Cover.of_cubes [ c ])
  in
  List.iter
    (fun id ->
      if id <> g && not (Network.is_input net id) then begin
        let lifted = Lift.cover net id in
        let rewritten =
          Cover.of_cubes
            (List.map
               (fun host ->
                 if Cube.contained_by host c then begin
                   let stripped = Cube.remove_all host c in
                   match Cube.add_literal (Literal.pos g) stripped with
                   | Some cube -> cube
                   | None -> host
                 end
                 else host)
               (Cover.cubes lifted))
        in
        if not (Cover.equal rewritten lifted) then Lift.set_cover net id rewritten
      end)
    (Network.logic_ids net)

(* The value functions above estimate flat-literal savings, but results
   are reported in factored form; a greedy round is committed only when it
   actually lowers the factored count. *)
let guarded_round net ~find ~apply =
  match find net with
  | None -> false
  | Some (candidate, _) ->
    Option.is_some
      (Network.attempt net @@ fun () ->
       apply net candidate;
       if Logic_network.Lit_count.attempt_gain net > 0 then Some () else None)

let gcx ?(max_rounds = 64) net =
  let rec loop round extracted =
    if round >= max_rounds then extracted
    else if guarded_round net ~find:best_common_cube ~apply:extract_cube then
      loop (round + 1) (extracted + 1)
    else extracted
  in
  loop 0 0

(* --- gkx ---------------------------------------------------------- *)

(* Flat literals of the rewrite f = q·k + r relative to f's current
   cover. *)
let kernel_savings_for f_cover k =
  let q, r = Algebraic.divide f_cover k in
  if Cover.is_zero q || Cover.cube_count q * Cover.cube_count k < 2 then 0
  else begin
    let before = Cover.literal_count f_cover in
    let after =
      Cover.literal_count q + Cover.cube_count q + Cover.literal_count r
    in
    max 0 (before - after)
  end

let max_kernels_per_node = 16

let best_common_kernel net =
  let nodes = Network.logic_ids net in
  let lifted = List.map (fun id -> (id, Lift.cover net id)) nodes in
  let kernels =
    List.concat_map
      (fun (_, cover) ->
        List.filteri (fun i _ -> i < max_kernels_per_node)
          (Kernel.distinct_kernels cover))
      lifted
  in
  let kernels =
    List.sort_uniq Cover.compare
      (List.filter (fun k -> Cover.cube_count k >= 2) kernels)
  in
  List.fold_left
    (fun best k ->
      let total =
        List.fold_left
          (fun acc (_, cover) -> acc + kernel_savings_for cover k)
          0 lifted
      in
      let value = total - Cover.literal_count k in
      match best with
      | Some (_, best_value) when best_value >= value -> best
      | _ when value > 0 -> Some (k, value)
      | _ -> best)
    None kernels

let extract_kernel net k =
  let g =
    Lift.add net ~name:(Printf.sprintf "kx%d" (Network.node_count net)) k
  in
  List.iter
    (fun id ->
      if id <> g && not (Network.is_input net id) then begin
        let lifted = Lift.cover net id in
        if kernel_savings_for lifted k > 0 then begin
          let q, r = Algebraic.divide lifted k in
          let g_lit = Cover.of_cubes [ Cube.of_literals_exn [ Literal.pos g ] ] in
          Lift.set_cover net id (Cover.union (Cover.product q g_lit) r)
        end
      end)
    (Network.logic_ids net)

let gkx ?(max_rounds = 64) net =
  let rec loop round extracted =
    if round >= max_rounds then extracted
    else if guarded_round net ~find:best_common_kernel ~apply:extract_kernel
    then loop (round + 1) (extracted + 1)
    else extracted
  in
  loop 0 0
