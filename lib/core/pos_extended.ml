open Twolevel
module Network = Logic_network.Network
module Lift = Logic_network.Lift
module Lit_count = Logic_network.Lit_count
module Counters = Rar_util.Counters

type outcome = {
  core_sum_terms : int;
  decomposed_divisor : bool;
  literal_gain : int;
}

let complement_limit = 64

let complemented net id =
  Minimize.complement ~limit:complement_limit (Lift.cover net id)

(* Map a complement-domain cover back into the real network: real-signal
   variables keep their phase; complement-domain node variables flip. *)
let map_back ~real_of ~flips cover =
  let translate cube =
    let lits =
      List.map
        (fun lit ->
          let v = Literal.var lit in
          let real = real_of v in
          let phase =
            if List.mem v flips then not (Literal.is_pos lit)
            else Literal.is_pos lit
          in
          Literal.make real phase)
        (Cube.literals cube)
    in
    Cube.of_literals lits
  in
  Cover.of_cubes (List.filter_map translate (Cover.cubes cover))

let try_run ?counters net ~f ~pool =
  let pool =
    List.filter
      (fun d ->
        d <> f
        && (not (Network.is_input net d))
        && not (Network.depends_on net d f))
      pool
  in
  if Network.is_input net f || pool = [] then None
  else begin
    let ( let* ) = Option.bind in
    let* f_not = complemented net f in
    (* A cube of f' inside a cube of d' is disjoint from every cube of d.
       Without such a pair for some pool node d, the vote in the
       complement domain has no valid entry
       ({!Extended_division.may_vote}), so no pool node is complemented
       and no scratch network is built in vain. *)
    let* () =
      if
        List.exists
          (fun d -> Division.has_disjoint_cube ~f_not ~d:(Lift.cover net d))
          pool
      then Some ()
      else None
    in
    let* pool_not =
      List.fold_left
        (fun acc d ->
          match acc with
          | None -> None
          | Some acc -> (
            match complemented net d with
            | Some c when not (Cover.is_zero c || Cover.is_one c) ->
              Some ((d, c) :: acc)
            | Some _ | None -> Some acc))
        (Some []) pool
    in
    if pool_not = [] || Cover.is_zero f_not || Cover.is_one f_not then None
    else begin
      (* Build the complement-domain scratch network: one input per real
         signal, then the complemented covers as nodes. *)
      let mini = Network.create () in
      let signals =
        List.sort_uniq Int.compare
          (Cover.support f_not
          @ List.concat_map (fun (_, c) -> Cover.support c) pool_not)
      in
      let mini_input = Hashtbl.create 16 in
      let real_of_mini = Hashtbl.create 16 in
      List.iter
        (fun real ->
          let id = Network.add_input mini (Network.name net real) in
          Hashtbl.replace mini_input real id;
          Hashtbl.replace real_of_mini id real)
        signals;
      let to_mini cover =
        Cover.map_vars (fun real -> Hashtbl.find mini_input real) cover
      in
      let add_mini name cover = Lift.add mini ~name (to_mini cover) in
      let f_mini = add_mini "f_not" f_not in
      Network.add_output mini "f_not" f_mini;
      let pool_mini =
        List.map
          (fun (d, c) ->
            let id = add_mini (Network.name net d ^ "_not") c in
            Network.add_output mini (Network.name mini id) id;
            (id, d, c))
          pool_not
      in
      (* The complement-domain run tallies into a private record: only its
         floor rejections are the caller's. *)
      let mini_counters = Counters.create () in
      let mini_run =
        Extended_division.try_run ~counters:mini_counters mini ~f:f_mini
          ~pool:(List.map (fun (id, _, _) -> id) pool_mini)
      in
      Option.iter
        (fun c ->
          Counters.add c.Counters.floor_rejects
            (Atomic.get mini_counters.Counters.floor_rejects))
        counters;
      match mini_run with
      | None -> None
      | Some ext ->
        (* Rebuild the real network on a scratch copy. *)
        let scratch = Network.copy net in
        let build () =
          (* Identify the complement-domain nodes appearing in the mini
             result: original pool nodes and at most one new core node. *)
          let is_pool_mini id = List.exists (fun (m, _, _) -> m = id) pool_mini in
          let new_nodes =
            List.filter
              (fun id ->
                (not (Network.is_input mini id))
                && id <> f_mini
                && not (is_pool_mini id))
              (Network.node_ids mini)
          in
          (* Create real counterparts for the new mini nodes (the core and
             possible split remainders): real = complement of mini. *)
          let real_counterpart = Hashtbl.create 4 in
          let* () =
            List.fold_left
              (fun acc mini_id ->
                let* () = acc in
                (* Express over real signals first (inputs only: new mini
                   nodes are built over inputs by materialise_core). *)
                let over_real =
                  Cover.map_vars
                    (fun v -> Hashtbl.find real_of_mini v)
                    (Lift.cover mini mini_id)
                in
                let* real_cover =
                  Minimize.complement ~limit:complement_limit over_real
                in
                let id =
                  Lift.add scratch
                    ~name:(Network.name scratch f ^ "_pcore")
                    real_cover
                in
                Hashtbl.replace real_counterpart mini_id id;
                Some ())
              (Some ()) new_nodes
          in
          (* Translation of a mini cover to a real node-id cover:
             mini inputs keep phase; mini pool/core nodes flip phase and
             map to their real counterparts. *)
          let flips =
            List.map (fun (m, _, _) -> m) pool_mini @ new_nodes
          in
          let real_of v =
            match Hashtbl.find_opt real_of_mini v with
            | Some real -> real
            | None -> (
              match Hashtbl.find_opt real_counterpart v with
              | Some real -> real
              | None -> (
                match List.find_opt (fun (m, _, _) -> m = v) pool_mini with
                | Some (_, d, _) -> d
                | None -> raise Not_found))
          in
          (* Real f = complement of the mini result for f'. *)
          let f_mini_result = Lift.cover mini f_mini in
          let* f_not_new =
            Minimize.complement ~limit:complement_limit f_mini_result
          in
          let f_real = map_back ~real_of ~flips f_not_new in
          let* () =
            match Lift.set_cover scratch f f_real with
            | exception Network.Cyclic _ -> None
            | () -> Some ()
          in
          (* Decomposed pool nodes: mini d' = core + rest became a cover
             referencing the core node; real d = complement, same
             translation. *)
          let* () =
            List.fold_left
              (fun acc (mini_id, d, original_not) ->
                let* () = acc in
                let now = Lift.cover mini mini_id in
                if Cover.equal now (to_mini original_not) then Some ()
                else begin
                  let* d_not_new =
                    Minimize.complement ~limit:complement_limit now
                  in
                  let d_real = map_back ~real_of ~flips d_not_new in
                  match Lift.set_cover scratch d d_real with
                  | exception Network.Cyclic _ -> None
                  | () -> Some ()
                end)
              (Some ()) pool_mini
          in
          Some ()
        in
        (match build () with
        | exception Not_found ->
          (* A mini-domain variable without a real counterpart: give up on
             this attempt rather than corrupting the scratch network. *)
          None
        | None -> None
        | Some () ->
          (* Drop any real counterpart that ended up unused. *)
          List.iter
            (fun id ->
              if
                Network.mem scratch id
                && (not (Network.is_input scratch id))
                && Network.fanouts scratch id = []
                && not (Network.is_output scratch id)
                && String.length (Network.name scratch id) > 6
                && Filename.check_suffix (Network.name scratch id) "_pcore"
              then Network.remove_node scratch id)
            (Network.logic_ids scratch);
          let gain = Lit_count.factored_delta net scratch in
          if gain > 0 then begin
            Network.overwrite net scratch;
            Some
              {
                core_sum_terms = ext.Extended_division.core_cubes;
                decomposed_divisor = ext.Extended_division.decomposed_divisor;
                literal_gain = gain;
              }
          end
          else None)
    end
  end
