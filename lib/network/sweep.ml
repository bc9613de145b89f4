open Twolevel

(* A node is a constant when its cover is 0 or a tautology-by-structure
   (contains the top cube). *)
let constant_value net id =
  let c = Network.cover net id in
  if Cover.is_zero c then Some false
  else if Cover.is_one c then Some true
  else None

(* Single positive or negative literal cover: a buffer or inverter. *)
let wire_alias net id =
  match Cover.cubes (Network.cover net id) with
  | [ cube ] -> (
    match Cube.literals cube with
    | [ lit ] -> Some (Network.fanins net id).(Literal.var lit), Literal.is_pos lit
    | _ -> (None, true))
  | _ -> (None, true)

(* Rewrite one fanout of a constant node: cofactor the constant away. *)
let propagate_constant net ~out ~target value =
  let fanins = Network.fanins net out in
  let cover = Network.cover net out in
  let rewritten = ref cover in
  Array.iteri
    (fun v f ->
      if f = target then
        rewritten := Cover.cofactor (Literal.make v value) !rewritten)
    fanins;
  (* Rebuild with the constant fanin dropped (normalisation removes it since
     the variable disappeared from the cover). *)
  Network.set_function net out ~fanins !rewritten

(* Rewrite one fanout of a buffer/inverter: redirect to the source with the
   appropriate phase. *)
let propagate_alias net ~out ~target ~source ~positive =
  let fanins = Network.fanins net out in
  let cover = Network.cover net out in
  let slot = ref None in
  Array.iteri (fun v f -> if f = target then slot := Some v) fanins;
  match !slot with
  | None -> ()
  | Some v ->
    let combined = Array.append fanins [| source |] in
    let fresh = Array.length fanins in
    let rewrite cube =
      match Cube.phase_of_var cube v with
      | None -> Some cube
      | Some phase ->
        let lit = Literal.make fresh (phase = positive) in
        Cube.add_literal lit (Cube.remove_var v cube)
    in
    let cover' =
      Cover.of_cubes (List.filter_map rewrite (Cover.cubes cover))
    in
    Network.set_function net out ~fanins:combined cover'

let run net =
  let removed = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let candidates = Network.logic_ids net in
    List.iter
      (fun id ->
        if Network.mem net id && not (Network.is_output net id) then begin
          match Network.fanouts net id with
          | [] ->
            Network.remove_node net id;
            incr removed;
            changed := true
          | fanouts -> (
            match constant_value net id with
            | Some value ->
              List.iter
                (fun out -> propagate_constant net ~out ~target:id value)
                fanouts;
              Network.remove_node net id;
              incr removed;
              changed := true
            | None -> (
              match wire_alias net id with
              | Some source, positive when not (Network.is_input net id) ->
                List.iter
                  (fun out ->
                    propagate_alias net ~out ~target:id ~source ~positive)
                  fanouts;
                Network.remove_node net id;
                incr removed;
                changed := true
              | _ -> ()))
        end)
      candidates
  done;
  !removed
