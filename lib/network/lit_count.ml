open Twolevel

let node_flat net id =
  if Network.is_input net id then 0 else Cover.literal_count (Network.cover net id)

let node_factored net id =
  if Network.is_input net id then 0 else Factor.count (Network.cover net id)

let sum per_node net =
  List.fold_left (fun acc id -> acc + per_node net id) 0 (Network.logic_ids net)

let flat net = sum node_flat net

let factored net = sum node_factored net

(* A cover the attempt did not replace is the physically equal one, so
   only the nodes it rewrote pay for [Factor.count]. *)
let attempt_gain net =
  let count = Option.fold ~none:0 ~some:Factor.count in
  List.fold_left
    (fun acc (id, before) ->
      let now =
        if Network.mem net id && not (Network.is_input net id) then
          Some (Network.cover net id)
        else None
      in
      if Option.equal ( == ) before now then acc
      else acc + count before - count now)
    0 (Network.attempt_changes net)
