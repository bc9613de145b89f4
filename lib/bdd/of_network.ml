open Twolevel
module Network = Logic_network.Network

let build man net ~input_var =
  let values = Hashtbl.create 64 in
  List.iter
    (fun id ->
      let bdd =
        if Network.is_input net id then Bdd.var man (input_var id)
        else begin
          let fanins = Network.fanins net id in
          let cube_bdd cube =
            List.fold_left
              (fun acc lit ->
                let f = Hashtbl.find values fanins.(Literal.var lit) in
                let f = if Literal.is_pos lit then f else Bdd.not_ man f in
                Bdd.band man acc f)
              (Bdd.btrue man) (Cube.literals cube)
          in
          List.fold_left
            (fun acc cube -> Bdd.bor man acc (cube_bdd cube))
            (Bdd.bfalse man)
            (Cover.cubes (Network.cover net id))
        end
      in
      Hashtbl.replace values id bdd)
    (Network.topological net);
  values

let default_input_var net =
  let order = Network.inputs net in
  fun id ->
    match List.find_index (Int.equal id) order with
    | Some i -> i
    | None -> invalid_arg "Of_network: not an input"

let all man net = build man net ~input_var:(default_input_var net)

let outputs man net =
  let values = all man net in
  List.map (fun (po, id) -> (po, Hashtbl.find values id)) (Network.outputs net)

let equivalent net1 net2 =
  let names net = List.sort String.compare (List.map fst (Network.outputs net)) in
  if names net1 <> names net2 then false
  else begin
    let man = Bdd.create () in
    (* Shared variable space: inputs matched by name. *)
    let index = Hashtbl.create 16 in
    List.iteri
      (fun i id -> Hashtbl.replace index (Network.name net1 id) i)
      (Network.inputs net1);
    let input_var net id =
      match Hashtbl.find_opt index (Network.name net id) with
      | Some i -> i
      | None -> invalid_arg "Of_network.equivalent: input name mismatch"
    in
    let v1 = build man net1 ~input_var:(input_var net1) in
    let v2 = build man net2 ~input_var:(input_var net2) in
    List.for_all
      (fun (po, id1) ->
        match List.find_opt (fun (p, _) -> p = po) (Network.outputs net2) with
        | None -> false
        | Some (_, id2) ->
          Bdd.equal (Hashtbl.find v1 id1) (Hashtbl.find v2 id2))
      (Network.outputs net1)
  end
