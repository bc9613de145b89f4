open Twolevel
module Network = Logic_network.Network

let remove_wire net wire =
  match wire with
  | Atpg.Fault.Literal_wire { node; cube; lit } ->
    let cubes = Array.of_list (Cover.cubes (Network.cover net node)) in
    cubes.(cube) <- Cube.remove_literal lit cubes.(cube);
    Network.set_function net node ~fanins:(Network.fanins net node)
      (Cover.single_cube_containment (Cover.of_cubes (Array.to_list cubes)))
  | Atpg.Fault.Cube_wire { node; cube } ->
    let cubes = Cover.cubes (Network.cover net node) in
    let remaining = List.filteri (fun i _ -> i <> cube) cubes in
    Network.set_function net node ~fanins:(Network.fanins net node)
      (Cover.of_cubes remaining)

let run ?(learn_depth = 0) ?region ?budget ?counters ?dc
    ?(node_filter = fun _ -> true) net =
  (* One implication arena for the whole fixpoint. Every wire of a node
     shares the same frozen set (the node's transitive fanout) and the
     same dominator-side-input requirements, so that context is asserted
     once per node behind a trail checkpoint and each wire branches from
     it with a pop. A removal leaves the arena stale, and the next reset
     rebuilds it in O(region). *)
  let engine = Atpg.Imply.create ?region ?counters ?dc net in
  let budget_of () =
    match budget with Some b -> b | None -> Rar_util.Budget.unlimited
  in
  let assign = Atpg.Fault.assign engine in
  let removed = ref 0 in
  let exhausted = ref None in
  let changed = ref true in
  while !changed && !exhausted = None do
    changed := false;
    let nodes = List.filter node_filter (Network.logic_ids net) in
    List.iter
      (fun id ->
        if !exhausted = None && Network.mem net id then begin
          (* Wire indices shift after a removal, so rescan the node after
             every hit. *)
          let rec scan () =
            let wires = Atpg.Fault.all_wires net id in
            if wires <> [] then begin
              let frozen = Network.fanout_cone_order net [ id ] in
              Atpg.Imply.reset ~frozen engine;
              Atpg.Imply.set_budget engine (budget_of ());
              match
                Atpg.Imply.propagate engine;
                List.iter assign (Atpg.Fault.propagation_assignments net id)
              with
              | exception Atpg.Imply.Conflict _ ->
                (* The node-shared context alone is inconsistent: every
                   wire's activation set is a superset, so each wire is
                   redundant. Remove the first and rescan (indices
                   shift), exactly as a per-wire conflict would. *)
                remove_wire net (List.hd wires);
                incr removed;
                changed := true;
                scan ()
              | exception Rar_util.Budget.Exhausted reason ->
                (* Budget ran out mid-scan. Exhaustion is sticky, so
                   further tests cannot succeed: stop the fixpoint here.
                   Every wire already removed was individually proven
                   redundant, so the partial result is sound — the cover
                   is merely less minimal. *)
                exhausted := Some reason
              | () ->
                let mark = Atpg.Imply.checkpoint engine in
                let test_wire w =
                  (* No mutation happens between the checkpoint and the
                     tests, so the mark cannot go stale. *)
                  let popped = Atpg.Imply.pop_to engine mark in
                  assert popped;
                  match
                    List.iter assign
                      (Atpg.Fault.cube_context_assignments net ~node:id
                         ~cube:(Atpg.Fault.wire_cube w));
                    List.iter assign
                      (Atpg.Fault.local_activation_assignments net w);
                    if learn_depth > 0 then
                      Atpg.Imply.learn ~depth:learn_depth engine
                  with
                  | () -> false
                  | exception Atpg.Imply.Conflict _ -> true
                  | exception Rar_util.Budget.Exhausted reason ->
                    exhausted := Some reason;
                    false
                in
                (match
                   List.find_opt
                     (fun w -> !exhausted = None && test_wire w)
                     wires
                 with
                | Some w ->
                  remove_wire net w;
                  incr removed;
                  changed := true;
                  scan ()
                | None -> ())
            end
          in
          scan ()
        end)
      nodes;
    (* A removal only touches the node being scanned, and [scan] stops
       at that node's fixpoint: with one node admitted, another round
       would retest every wire on an unchanged network. *)
    match nodes with [ _ ] -> changed := false | _ -> ()
  done;
  (match (!exhausted, counters) with
  | Some _, Some c ->
    Rar_util.Counters.add c.Rar_util.Counters.degradations 1
  | _ -> ());
  !removed
