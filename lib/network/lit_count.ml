open Twolevel

let node_flat net id =
  if Network.is_input net id then 0 else Cover.literal_count (Network.cover net id)

let node_factored net id =
  if Network.is_input net id then 0 else Factor.count (Network.cover net id)

let sum per_node net =
  List.fold_left (fun acc id -> acc + per_node net id) 0 (Network.logic_ids net)

let flat net = sum node_flat net

let factored net = sum node_factored net

(* Terms of ids whose covers are physically equal in both networks cancel,
   and an unchanged cover is one [Network.copy] shares, so only the nodes
   an attempt touched pay for [Factor.count]. *)
let factored_delta before after =
  let logic net id = Network.mem net id && not (Network.is_input net id) in
  let delta = ref 0 in
  for id = 0 to max (Network.id_limit before) (Network.id_limit after) - 1 do
    let in_before = logic before id and in_after = logic after id in
    if in_before && in_after then begin
      let b = Network.cover before id and a = Network.cover after id in
      if b != a then delta := !delta + Factor.count b - Factor.count a
    end
    else begin
      if in_before then delta := !delta + node_factored before id;
      if in_after then delta := !delta - node_factored after id
    end
  done;
  !delta
