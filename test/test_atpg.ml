(* Tests for the implication engine, fault analysis, and RAR. *)

open Twolevel
module Network = Logic_network.Network
module Builder = Logic_network.Builder
module Lit_count = Logic_network.Lit_count
module Equiv = Logic_sim.Equiv
module Imply = Atpg.Imply
module Fault = Atpg.Fault
module Generator = Bench_suite.Generator

(* ------------------------------------------------------------------ *)
(* Implication engine                                                  *)
(* ------------------------------------------------------------------ *)

(* The nodes the engine has a value for, ascending: [node_value] on
   every id the network has allocated. *)
let assigned_nodes net e =
  List.filter_map
    (fun id -> Option.map (fun v -> (id, v)) (Imply.node_value e id))
    (List.init (Network.id_limit net) Fun.id)

let test_forward_implication () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ] ~nodes:[ ("g", "ab") ] ~outputs:[ "g" ]
  in
  let a = Builder.node net "a" and b = Builder.node net "b" in
  let g = Builder.node net "g" in
  let e = Imply.create net in
  Imply.assign_node e a true;
  Alcotest.(check (option bool)) "g unknown with one input" None
    (Imply.node_value e g);
  Imply.assign_node e b true;
  Alcotest.(check (option bool)) "g follows AND" (Some true)
    (Imply.node_value e g);
  (* Controlling value dominates. *)
  let e2 = Imply.create net in
  Imply.assign_node e2 a false;
  Alcotest.(check (option bool)) "a=0 kills AND" (Some false)
    (Imply.node_value e2 g)

let test_backward_implication () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ] ~nodes:[ ("g", "ab") ] ~outputs:[ "g" ]
  in
  let a = Builder.node net "a" and b = Builder.node net "b" in
  let g = Builder.node net "g" in
  let e = Imply.create net in
  (* AND at 1 forces both inputs. *)
  Imply.assign_node e g true;
  Alcotest.(check (option bool)) "a forced" (Some true) (Imply.node_value e a);
  Alcotest.(check (option bool)) "b forced" (Some true) (Imply.node_value e b);
  (* AND at 0 with one input known true forces the other. *)
  let e2 = Imply.create net in
  Imply.assign_node e2 g false;
  Imply.assign_node e2 a true;
  Alcotest.(check (option bool)) "b forced low" (Some false)
    (Imply.node_value e2 b)

let test_or_backward () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ]
      ~nodes:[ ("g", "a + b") ]
      ~outputs:[ "g" ]
  in
  let a = Builder.node net "a" and b = Builder.node net "b" in
  let g = Builder.node net "g" in
  let e = Imply.create net in
  Imply.assign_node e g true;
  Imply.assign_node e a false;
  Alcotest.(check (option bool)) "last live cube justified" (Some true)
    (Imply.node_value e b)

let test_conflict_detection () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ] ~nodes:[ ("g", "ab") ] ~outputs:[ "g" ]
  in
  let a = Builder.node net "a" and b = Builder.node net "b" in
  let g = Builder.node net "g" in
  let e = Imply.create net in
  Imply.assign_node e a false;
  Alcotest.(check bool) "conflict raised" true
    (match Imply.assign_node e g true with
    | () -> false
    | exception Imply.Conflict _ -> true);
  ignore b

let test_implication_through_levels () =
  (* x = ab; y = x c. Asserting y=1 must reach a and b. *)
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("x", "ab"); ("y", "xc") ]
      ~outputs:[ "y" ]
  in
  let e = Imply.create net in
  Imply.assign_node e (Builder.node net "y") true;
  List.iter
    (fun n ->
      Alcotest.(check (option bool)) (n ^ " forced") (Some true)
        (Imply.node_value e (Builder.node net n)))
    [ "x"; "c"; "a"; "b" ]

let test_region_restriction () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("x", "ab"); ("y", "xc") ]
      ~outputs:[ "y" ]
  in
  let y = Builder.node net "y" and x = Builder.node net "x" in
  let e = Imply.create ~region:[ y ] net in
  Imply.assign_node e y true;
  (* x's value is recorded (backward from y) but not propagated further. *)
  Alcotest.(check (option bool)) "x recorded" (Some true) (Imply.node_value e x);
  Alcotest.(check (option bool)) "a not derived (out of region)" None
    (Imply.node_value e (Builder.node net "a"))

let test_frozen_node () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ] ~nodes:[ ("g", "ab") ] ~outputs:[ "g" ]
  in
  let g = Builder.node net "g" in
  let e = Imply.create ~frozen:[ g ] net in
  Imply.assign_node e (Builder.node net "a") true;
  Imply.assign_node e (Builder.node net "b") true;
  Alcotest.(check (option bool)) "frozen node never valued" None
    (Imply.node_value e g)

let test_recursive_learning () =
  (* f = ab + cb: both justifications of f=1 need b=1; plain implication
     cannot see it, depth-1 learning must. *)
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("f", "ab + cb") ]
      ~outputs:[ "f" ]
  in
  let f = Builder.node net "f" and b = Builder.node net "b" in
  let e = Imply.create net in
  Imply.assign_node e f true;
  Alcotest.(check (option bool)) "direct implication misses b" None
    (Imply.node_value e b);
  Imply.learn ~depth:1 e;
  Alcotest.(check (option bool)) "learning finds b" (Some true)
    (Imply.node_value e b)

let test_learning_conflict () =
  (* f = ab + cb with b=0 makes f=1 unjustifiable. *)
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("f", "ab + cb") ]
      ~outputs:[ "f" ]
  in
  let e = Imply.create net in
  Imply.assign_node e (Builder.node net "b") false;
  Alcotest.(check bool) "f=1 now conflicts" true
    (match
       Imply.assign_node e (Builder.node net "f") true;
       Imply.learn ~depth:1 e
     with
    | () -> false
    | exception Imply.Conflict _ -> true)

(* ------------------------------------------------------------------ *)
(* Dominators and mandatory assignments                                *)
(* ------------------------------------------------------------------ *)

let test_dominators_chain () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c"; "d" ]
      ~nodes:[ ("x", "ab"); ("y", "xc"); ("z", "y + d") ]
      ~outputs:[ "z" ]
  in
  let x = Builder.node net "x" in
  let doms = Fault.dominators net x in
  Alcotest.(check (list string)) "chain dominators" [ "y"; "z" ]
    (List.map (Network.name net) doms)

let test_dominators_reconvergence () =
  (* x fans out to y1 and y2 which reconverge at z: only z dominates. *)
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("x", "ab"); ("y1", "xc"); ("y2", "x + c"); ("z", "y1 + y2") ]
      ~outputs:[ "z" ]
  in
  let x = Builder.node net "x" in
  Alcotest.(check (list string)) "reconvergent dominator" [ "z" ]
    (List.map (Network.name net) (Fault.dominators net x))

let test_propagation_assignments () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c"; "d" ]
      ~nodes:[ ("x", "ab"); ("y", "xc"); ("z", "y + d") ]
      ~outputs:[ "z" ]
  in
  let x = Builder.node net "x" in
  let assignments = Fault.propagation_assignments net x in
  let c = Builder.node net "c" and d = Builder.node net "d" in
  Alcotest.(check bool) "c must be 1 (AND side input)" true
    (List.mem (Fault.Node (c, true)) assignments);
  (* z = y + d: the cube d has no D-input, so it must be 0. *)
  let z = Builder.node net "z" in
  let d_cube_zero =
    List.exists
      (function Fault.Cube (m, _, false) -> m = z | _ -> false)
      assignments
  in
  Alcotest.(check bool) "d cube must be 0 (OR side input)" true d_cube_zero;
  ignore d

(* ------------------------------------------------------------------ *)
(* Redundancy identification and removal                               *)
(* ------------------------------------------------------------------ *)

let test_redundant_contained_cube () =
  (* f = a + ab: cube ab is redundant. *)
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ]
      ~nodes:[ ("f", "a + ab") ]
      ~outputs:[ "f" ]
  in
  let f = Builder.node net "f" in
  let wires = Fault.all_wires net f in
  let redundant_wires = List.filter (Fault.redundant net) wires in
  Alcotest.(check bool) "something redundant" true (redundant_wires <> []);
  let before = Network.copy net in
  let removed = Rewiring.Remove.run net in
  Alcotest.(check bool) "wires removed" true (removed > 0);
  Alcotest.(check bool) "equivalent after removal" true
    (Equiv.equivalent before net);
  Alcotest.(check int) "minimal result" 1
    (Cover.literal_count (Network.cover net f))

let test_redundant_literal_consensus () =
  (* f = ab + a'b ≡ b: the a-literals are redundant. *)
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ]
      ~nodes:[ ("f", "ab + a'b") ]
      ~outputs:[ "f" ]
  in
  let before = Network.copy net in
  ignore (Rewiring.Remove.run net);
  Alcotest.(check bool) "equivalent" true (Equiv.equivalent before net);
  Alcotest.(check int) "reduced to b" 1
    (Cover.literal_count (Network.cover net (Builder.node net "f")))

let test_redundant_cross_node () =
  (* y = a x with x = ab: literal a in y is redundant (x=1 implies a=1). *)
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ]
      ~nodes:[ ("x", "ab"); ("y", "ax") ]
      ~outputs:[ "y"; "x" ]
  in
  let before = Network.copy net in
  ignore (Rewiring.Remove.run net);
  Alcotest.(check bool) "equivalent" true (Equiv.equivalent before net);
  Alcotest.(check int) "y reduced to buffer of x" 1
    (Cover.literal_count (Network.cover net (Builder.node net "y")))

let test_irredundant_untouched () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("f", "ab + a'c") ]
      ~outputs:[ "f" ]
  in
  let removed = Rewiring.Remove.run net in
  Alcotest.(check int) "nothing to remove" 0 removed

(* ------------------------------------------------------------------ *)
(* RAR (addition and removal)                                          *)
(* ------------------------------------------------------------------ *)

let test_try_add_redundant_wire () =
  (* y = ax with x = ab: adding literal b to y's cube is redundant
     (x ≤ b), adding c is not. *)
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("x", "ab"); ("y", "ax + c") ]
      ~outputs:[ "y"; "x" ]
  in
  let before = Network.copy net in
  let y = Builder.node net "y" in
  let b = Builder.node net "b" in
  let cube_of_x =
    (* Find the cube of y containing x. *)
    let fanins = Network.fanins net y in
    let x = Builder.node net "x" in
    let cubes = Cover.cubes (Network.cover net y) in
    match
      List.find_index
        (fun cube ->
          List.exists
            (fun lit -> fanins.(Literal.var lit) = x)
            (Cube.literals cube))
        cubes
    with
    | Some i -> i
    | None -> Alcotest.fail "cube with x not found"
  in
  Alcotest.(check bool) "redundant addition accepted" true
    (Rewiring.Rar.try_add_wire net ~node:y ~cube:cube_of_x ~source:b ~phase:true);
  Alcotest.(check bool) "still equivalent" true (Equiv.equivalent before net);
  let c = Builder.node net "c" in
  Alcotest.(check bool) "non-redundant addition rejected" false
    (Rewiring.Rar.try_add_wire net ~node:y ~cube:cube_of_x ~source:c ~phase:true);
  Alcotest.(check bool) "rejection left function intact" true
    (Equiv.equivalent before net)

let test_rar_optimize_preserves () =
  let net =
    Generator.planted ~seed:7
      {
        inputs = 6;
        noise_nodes = 4;
        algebraic_plants = 1;
        gdc_plants = 0;
        boolean_plants = 1;
        outputs = 4;
      }
  in
  let before = Network.copy net in
  let stats = Rewiring.Rar.optimize ~max_sources_per_node:4 net in
  Network.check net;
  Alcotest.(check bool) "equivalent after RAR" true (Equiv.equivalent before net);
  Alcotest.(check bool) "never negative savings" true (stats.literals_saved >= 0)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)


(* ------------------------------------------------------------------ *)
(* Additional engine edge cases                                        *)
(* ------------------------------------------------------------------ *)

let test_cube_assignment_api () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("g", "ab + c") ]
      ~outputs:[ "g" ]
  in
  let g = Builder.node net "g" in
  let e = Imply.create net in
  (* Out-of-range cube indices are rejected. *)
  Alcotest.check_raises "bad index"
    (Invalid_argument "Imply.assign_cube: cube index") (fun () ->
      Imply.assign_cube e g 5 true);
  (* Assigning a cube to 1 forces its literals. *)
  let ab_index =
    let cubes = Cover.cubes (Network.cover net g) in
    match List.find_index (fun c -> Cube.size c = 2) cubes with
    | Some i -> i
    | None -> Alcotest.fail "cube ab not found"
  in
  Imply.assign_cube e g ab_index true;
  Alcotest.(check (option bool)) "a forced by cube" (Some true)
    (Imply.node_value e (Builder.node net "a"));
  Alcotest.(check (option bool)) "cube value readable" (Some true)
    (Imply.cube_value e g ab_index);
  Alcotest.(check (option bool)) "node follows cube" (Some true)
    (Imply.node_value e g)

let test_constant_node_propagation () =
  (* A constant-0 node is derived immediately when touched. *)
  let net = Network.create () in
  let a = Network.add_input net "a" in
  let zero = Network.add_logic net ~name:"zero" ~fanins:[||] Cover.zero in
  let g =
    Network.add_logic net ~name:"g" ~fanins:[| a; zero |]
      (Parse.cover_default "a + b")
  in
  Network.add_output net "g" g;
  let e = Imply.create net in
  Imply.assign_node e g true;
  (* g = a + zero and g = 1: with zero = 0 derived, a must be 1. *)
  Alcotest.(check (option bool)) "zero derived" (Some false)
    (Imply.node_value e zero);
  Alcotest.(check (option bool)) "a justified" (Some true)
    (Imply.node_value e a)

let test_learn_respects_max_options () =
  (* f = ab + cb + db: three justification options; with max_options 2 the
     split is skipped and nothing is learnt. *)
  let net =
    Builder.of_spec
      ~inputs:[ "a"; "b"; "c"; "d" ]
      ~nodes:[ ("f", "ab + cb + db") ]
      ~outputs:[ "f" ]
  in
  let f = Builder.node net "f" and b = Builder.node net "b" in
  let e = Imply.create net in
  Imply.assign_node e f true;
  Imply.learn ~max_options:2 ~depth:1 e;
  Alcotest.(check (option bool)) "skipped wide split" None (Imply.node_value e b);
  Imply.learn ~max_options:3 ~depth:1 e;
  Alcotest.(check (option bool)) "learnt with room" (Some true)
    (Imply.node_value e b)

let test_all_wires_count () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("g", "ab + c") ]
      ~outputs:[ "g" ]
  in
  let g = Builder.node net "g" in
  let wires = Fault.all_wires net g in
  (* 2 cube wires + 3 literal wires. *)
  Alcotest.(check int) "wire count" 5 (List.length wires);
  List.iter
    (fun w ->
      Alcotest.(check bool) "printable" true
        (String.length (Fault.wire_to_string net w) > 0))
    wires

let test_redundant_with_extra_assumptions () =
  (* b in cube ab is not redundant on its own, but under the extra
     assumption "node a = 1 whenever considered" it still is not: extra
     assumptions that CONTRADICT activation make it trivially redundant. *)
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ] ~nodes:[ ("g", "ab") ] ~outputs:[ "g" ]
  in
  let g = Builder.node net "g" in
  let b = Builder.node net "b" in
  let wire =
    Atpg.Fault.Literal_wire { node = g; cube = 0; lit = Literal.pos 1 }
  in
  Alcotest.(check bool) "not redundant alone" false (Fault.redundant net wire);
  Alcotest.(check bool) "redundant under extra constraint" true
    (Fault.redundant ~extra:[ Atpg.Fault.Node (b, true) ] net wire)

let test_redundant_budget_exhausted () =
  (* With zero fuel the probe cannot take a single implication step:
     the typed driver must report the exhaustion instead of a verdict,
     and the boolean wrapper must degrade one-sidedly to "keep the
     wire" — never to a spurious removal. *)
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ]
      ~nodes:[ ("f", "a + ab") ]
      ~outputs:[ "f" ]
  in
  let f = Builder.node net "f" in
  let wires = Fault.all_wires net f in
  List.iter
    (fun wire ->
      let budget = Rar_util.Budget.create ~fuel:0 () in
      (match Fault.redundant_result ~budget net wire with
      | Error Rar_util.Budget.Fuel -> ()
      | Error Rar_util.Budget.Deadline ->
        Alcotest.fail "exhausted for the wrong reason"
      | Ok verdict ->
        Alcotest.failf "expected exhaustion, got verdict %b" verdict);
      Alcotest.(check bool) "exhaustion is sticky" true
        (Rar_util.Budget.exhausted budget = Some Rar_util.Budget.Fuel);
      Alcotest.(check bool) "boolean wrapper keeps the wire" false
        (Fault.redundant ~budget:(Rar_util.Budget.create ~fuel:0 ()) net wire);
      (* An ample budget must agree with the unbudgeted verdict. *)
      match
        Fault.redundant_result
          ~budget:(Rar_util.Budget.create ~fuel:1_000_000 ())
          net wire
      with
      | Ok verdict ->
        Alcotest.(check bool) "ample budget matches" (Fault.redundant net wire)
          verdict
      | Error _ -> Alcotest.fail "ample budget exhausted")
    wires

let test_remove_with_region () =
  (* Region-restricted removal still finds local redundancies. *)
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ]
      ~nodes:[ ("f", "ab + a'b") ]
      ~outputs:[ "f" ]
  in
  let f = Builder.node net "f" in
  let region = f :: Network.inputs net in
  let removed = Rewiring.Remove.run ~region net in
  Alcotest.(check bool) "removed locally" true (removed > 0);
  Alcotest.(check int) "reduced to b" 1
    (Cover.literal_count (Network.cover net f))

let gen_net =
  QCheck2.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* n_nodes = int_range 3 10 in
    return (Generator.random ~seed ~n_inputs:5 ~n_nodes ~n_outputs:2 ()))



let test_find_test () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ] ~nodes:[ ("g", "ab") ] ~outputs:[ "g" ]
  in
  let g = Builder.node net "g" in
  (* b stuck-at-1 in the irredundant AND is testable; the returned vector
     must actually distinguish good and faulty circuits. *)
  let wire = Fault.Literal_wire { node = g; cube = 0; lit = Literal.pos 1 } in
  (match Fault.find_test net wire with
  | None -> Alcotest.fail "testable fault should have a test"
  | Some vector ->
    let faulty = Fault.inject net wire in
    let assign n id =
      List.assoc (Network.name n id) vector
    in
    let good = Network.eval net (assign net) g in
    let bad =
      Network.eval faulty (assign faulty)
        (Option.get (Network.find_by_name faulty "g"))
    in
    Alcotest.(check bool) "vector distinguishes" true (good <> bad));
  (* A redundant wire has no test. *)
  let net2 =
    Builder.of_spec ~inputs:[ "a"; "b" ]
      ~nodes:[ ("g", "a + ab") ]
      ~outputs:[ "g" ]
  in
  let g2 = Builder.node net2 "g" in
  Alcotest.(check bool) "redundant cube has no test" true
    (Fault.find_test net2 (Fault.Cube_wire { node = g2; cube = 1 }) = None)

let test_inject_semantics () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ]
      ~nodes:[ ("g", "ab + a'") ]
      ~outputs:[ "g" ]
  in
  let g = Builder.node net "g" in
  (* Injecting s-a-1 on literal b turns cube ab into a: g = a + a' = 1. *)
  let wire_b = Fault.Literal_wire { node = g; cube = 0; lit = Literal.pos 1 } in
  let faulty = Fault.inject net wire_b in
  Alcotest.(check bool) "fault changes the function" false
    (Equiv.equivalent net faulty)

let prop_redundant_is_sound =
  (* THE soundness statement: whenever the implication engine declares a
     wire redundant, the exact (exhaustive) testability check agrees. *)
  QCheck2.Test.make ~name:"redundant => fault truly untestable" ~count:60
    ~print:Network.to_string gen_net (fun net ->
      List.for_all
        (fun id ->
          List.for_all
            (fun wire ->
              (not (Fault.redundant ~learn_depth:1 net wire))
              || Equiv.equivalent net (Fault.inject net wire))
            (Fault.all_wires net id))
        (Network.logic_ids net))

let coverage_of_redundancy_test net =
  (* How many truly redundant wires the conservative test identifies. *)
  let found = ref 0 and truly = ref 0 in
  List.iter
    (fun id ->
      List.iter
        (fun wire ->
          if Equiv.equivalent net (Fault.inject net wire) then begin
            incr truly;
            if Fault.redundant ~learn_depth:1 net wire then incr found
          end)
        (Fault.all_wires net id))
    (Network.logic_ids net);
  (!found, !truly)

let test_redundancy_coverage () =
  (* The conservative test should catch a decent share of true
     redundancies on circuits that have them. *)
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("x", "ab"); ("f", "ax + a'bx + c") ]
      ~outputs:[ "f"; "x" ]
  in
  let found, truly = coverage_of_redundancy_test net in
  Alcotest.(check bool) "has true redundancies" true (truly > 0);
  Alcotest.(check bool) "finds at least half of them" true
    (2 * found >= truly)


(* The engine's defining property: derived values are entailed, conflicts
   prove unsatisfiability. Random small networks + random node-value
   assumption sets, checked exhaustively over all input assignments. *)
let prop_implication_soundness =
  let gen =
    QCheck2.Gen.(
      let* seed = int_range 1 1_000_000 in
      let* n_nodes = int_range 2 8 in
      let* n_assumptions = int_range 1 3 in
      let* picks = list_size (return n_assumptions) (pair (int_range 0 1000) bool) in
      return (Generator.random ~seed ~n_inputs:5 ~n_nodes ~n_outputs:2 (), picks))
  in
  QCheck2.Test.make ~name:"implications are entailed; conflicts are unsat"
    ~count:200
    ~print:(fun (net, _) -> Network.to_string net)
    gen
    (fun (net, picks) ->
      let nodes = Array.of_list (List.sort Int.compare (Network.node_ids net)) in
      let assumptions =
        List.map (fun (k, v) -> (nodes.(k mod Array.length nodes), v)) picks
      in
      let engine = Imply.create net in
      let outcome =
        match
          List.iter (fun (id, v) -> Imply.assign_node engine id v) assumptions
        with
        | () -> `Ok
        | exception Imply.Conflict _ -> `Conflict
      in
      (* All input vectors consistent with the assumptions. *)
      let inputs = Network.inputs net in
      let n = List.length inputs in
      let consistent = ref [] in
      for bits = 0 to (1 lsl n) - 1 do
        let assign id =
          match List.find_index (Int.equal id) inputs with
          | Some i -> bits land (1 lsl i) <> 0
          | None -> assert false
        in
        let values = Network.eval net assign in
        if List.for_all (fun (id, v) -> values id = v) assumptions then
          consistent := values :: !consistent
      done;
      match outcome with
      | `Conflict ->
        (* One-sided: a conflict must prove there is no consistent vector. *)
        !consistent = []
      | `Ok ->
        (* Every derived node value must hold on every consistent vector. *)
        List.for_all
          (fun (id, v) ->
            List.for_all (fun values -> values id = v) !consistent)
          (assigned_nodes net engine))

let prop_remove_preserves =
  QCheck2.Test.make ~name:"redundancy removal preserves function" ~count:80
    ~print:Network.to_string gen_net (fun net ->
      let before = Network.copy net in
      ignore (Rewiring.Remove.run net);
      Network.check net;
      Equiv.equivalent before net)

let prop_remove_with_learning_preserves =
  QCheck2.Test.make
    ~name:"redundancy removal with learning preserves function" ~count:40
    ~print:Network.to_string gen_net (fun net ->
      let before = Network.copy net in
      ignore (Rewiring.Remove.run ~learn_depth:1 net);
      Network.check net;
      Equiv.equivalent before net)

let prop_remove_never_grows =
  QCheck2.Test.make ~name:"redundancy removal never grows literal count"
    ~count:80 ~print:Network.to_string gen_net (fun net ->
      let before = Lit_count.flat net in
      ignore (Rewiring.Remove.run net);
      Lit_count.flat net <= before)

(* ------------------------------------------------------------------ *)
(* Arena reuse: reset must restore the exact post-create state          *)
(* ------------------------------------------------------------------ *)

(* Engines agree when every node and cube value matches. *)
let check_engines_agree ~msg net a b =
  List.iter
    (fun id ->
      Alcotest.(check (option bool))
        (Printf.sprintf "%s: node %s" msg (Network.name net id))
        (Imply.node_value b id) (Imply.node_value a id);
      if not (Network.is_input net id) then
        List.iteri
          (fun i _ ->
            Alcotest.(check (option bool))
              (Printf.sprintf "%s: cube %d of %s" msg i (Network.name net id))
              (Imply.cube_value b id i) (Imply.cube_value a id i))
          (Cover.cubes (Network.cover net id)))
    (Network.node_ids net)

let apply_activation e net wire =
  match
    List.iter
      (function
        | Fault.Node (n, v) -> Imply.assign_node e n v
        | Fault.Cube (n, i, v) -> Imply.assign_cube e n i v)
      (Fault.activation_assignments net wire)
  with
  | () -> `Ok
  | exception Imply.Conflict _ -> `Conflict

(* Across every wire of a generated circuit: resetting a shared arena
   between faults (the assign, undo and conflict paths all exercised)
   must reproduce a fresh engine's behaviour exactly. *)
let test_arena_reset_matches_fresh () =
  let net = Generator.random ~seed:5 ~n_inputs:6 ~n_nodes:12 ~n_outputs:3 () in
  let counters = Rar_util.Counters.create () in
  let engine = Imply.create ~counters net in
  List.iter
    (fun id ->
      let frozen = Network.fanout_cone_order net [ id ] in
      List.iter
        (fun wire ->
          Imply.reset ~frozen engine;
          let fresh = Imply.create ~frozen net in
          check_engines_agree ~msg:"after reset" net engine fresh;
          let r_reused = apply_activation engine net wire in
          let r_fresh = apply_activation fresh net wire in
          Alcotest.(check bool)
            (Fault.wire_to_string net wire ^ ": same outcome")
            (r_fresh = `Conflict) (r_reused = `Conflict);
          if r_reused = `Ok && r_fresh = `Ok then
            check_engines_agree ~msg:"after activation" net engine fresh)
        (Fault.all_wires net id))
    (Network.logic_ids net);
  Alcotest.(check bool) "resets counted" true
    (Atomic.get counters.Rar_util.Counters.imply_resets > 0);
  Alcotest.(check int) "one structural build" 1
    (Atomic.get counters.Rar_util.Counters.imply_creates)

(* A reset after the network mutates must rebuild the arena. *)
let test_arena_rebuild_on_mutation () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("g", "ab + c") ]
      ~outputs:[ "g" ]
  in
  let counters = Rar_util.Counters.create () in
  let engine = Imply.create ~counters net in
  let g = Builder.node net "g" and a = Builder.node net "a" in
  Imply.assign_node engine a true;
  (* Drop the c cube: g = ab. *)
  Network.set_function net g
    ~fanins:(Network.fanins net g)
    (Cover.of_cubes [ List.hd (Cover.cubes (Network.cover net g)) ]);
  Imply.reset engine;
  Alcotest.(check int) "rebuild counted as create" 2
    (Atomic.get counters.Rar_util.Counters.imply_creates);
  let fresh = Imply.create net in
  Imply.assign_node engine g true;
  Imply.assign_node fresh g true;
  check_engines_agree ~msg:"post-rebuild" net engine fresh;
  Alcotest.(check (option bool)) "backward rule on new structure" (Some true)
    (Imply.node_value engine a)

(* ------------------------------------------------------------------ *)
(* Trail checkpoints                                                   *)
(* ------------------------------------------------------------------ *)

(* Shared context asserted once, then two wires branched from the same
   checkpoint: after popping, each branch must see exactly the state a
   fresh reset + replay of the shared context would give. *)
let test_checkpoint_branch_replay () =
  let net =
    Builder.of_spec
      ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("g", "ab"); ("h", "gc") ]
      ~outputs:[ "h" ]
  in
  let a = Builder.node net "a" and b = Builder.node net "b" in
  let c = Builder.node net "c" and g = Builder.node net "g" in
  let e = Imply.create net in
  Imply.assign_node e g true;
  Imply.propagate e;
  let mark = Imply.checkpoint e in
  (* Branch 1: assign c. *)
  Imply.assign_node e c false;
  Imply.propagate e;
  Alcotest.(check (option bool)) "branch1 sees c" (Some false)
    (Imply.node_value e c);
  (* Branch 2: popping must erase branch 1 but keep the shared context. *)
  Alcotest.(check bool) "pop succeeds" true (Imply.pop_to e mark);
  Alcotest.(check (option bool)) "c unwound" None (Imply.node_value e c);
  Alcotest.(check (option bool)) "shared a kept" (Some true)
    (Imply.node_value e a);
  Alcotest.(check (option bool)) "shared b kept" (Some true)
    (Imply.node_value e b);
  Imply.assign_node e c true;
  Imply.propagate e;
  (* Reference: the same branch on a freshly reset engine. *)
  let r = Imply.create net in
  Imply.assign_node r g true;
  Imply.assign_node r c true;
  Imply.propagate r;
  List.iter
    (fun id ->
      Alcotest.(check (option bool))
        (Printf.sprintf "node %d matches fresh replay" id)
        (Imply.node_value r id) (Imply.node_value e id))
    [ a; b; c; g ]

(* A reset invalidates marks taken before it, even when later asserts
   regrow the trail past the mark's position. *)
let test_checkpoint_stale_after_reset () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ] ~nodes:[ ("g", "ab") ]
      ~outputs:[ "g" ]
  in
  let a = Builder.node net "a" and b = Builder.node net "b" in
  let e = Imply.create net in
  Imply.assign_node e a true;
  Imply.propagate e;
  let mark = Imply.checkpoint e in
  Imply.reset e;
  Alcotest.(check bool) "mark stale right after reset" false
    (Imply.pop_to e mark);
  Imply.assign_node e a true;
  Imply.assign_node e b true;
  Imply.propagate e;
  (* Trail is now at least as long as at checkpoint time. *)
  Alcotest.(check bool) "mark still stale after regrowth" false
    (Imply.pop_to e mark)

(* Mutating the network forces an arena rebuild on the next reset;
   marks from the previous revision must go stale. *)
let test_checkpoint_stale_after_revision () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ] ~nodes:[ ("g", "ab") ]
      ~outputs:[ "g" ]
  in
  let a = Builder.node net "a" and g = Builder.node net "g" in
  let e = Imply.create net in
  Imply.assign_node e a true;
  Imply.propagate e;
  let mark = Imply.checkpoint e in
  Network.set_function net g
    ~fanins:(Network.fanins net g)
    (Network.cover net g);
  Alcotest.(check bool) "mark stale before the rebuild" false
    (Imply.pop_to e mark);
  Imply.reset e;
  Imply.assign_node e a true;
  Imply.propagate e;
  Alcotest.(check bool) "mark from previous revision stale" false
    (Imply.pop_to e mark)

(* Checkpoint with implications still queued is a caller bug. The only
   public path to a pending queue is the constants' fanouts left queued
   by create/reset until [propagate] drains them. *)
let test_checkpoint_requires_propagated () =
  let net = Network.create () in
  let a = Network.add_input net "a" in
  let k = Network.add_logic net ~name:"k" ~fanins:[||] Cover.one in
  let g =
    Network.add_logic net ~name:"g" ~fanins:[| k; a |]
      (Cover.of_cubes
         [ Cube.of_literals_exn [ Literal.pos 0; Literal.pos 1 ] ])
  in
  Network.add_output net "g" g;
  let e = Imply.create net in
  let pending = "Imply.checkpoint: pending implications (propagate first)" in
  Alcotest.check_raises "rejected with constants still queued"
    (Invalid_argument pending) (fun () -> ignore (Imply.checkpoint e));
  Imply.propagate e;
  Alcotest.(check (option bool)) "constant propagated" (Some true)
    (Imply.node_value e k);
  ignore (Imply.checkpoint e);
  Imply.reset e;
  Alcotest.check_raises "reset re-arms the constant queue"
    (Invalid_argument pending) (fun () -> ignore (Imply.checkpoint e));
  Imply.propagate e;
  ignore (Imply.checkpoint e)

(* Budget exhaustion mid-branch: popping back to the mark must leave the
   shared context intact so the caller can continue with other wires. *)
let test_checkpoint_budget_unwind () =
  let net =
    Builder.of_spec
      ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("g", "ab"); ("h", "gc") ]
      ~outputs:[ "h" ]
  in
  let a = Builder.node net "a" and c = Builder.node net "c" in
  let e = Imply.create net in
  Imply.assign_node e a true;
  Imply.propagate e;
  let mark = Imply.checkpoint e in
  Imply.set_budget e (Rar_util.Budget.create ~fuel:1 ());
  (match Imply.assign_node e c true with
  | () -> ()
  | exception Rar_util.Budget.Exhausted _ -> ());
  Imply.set_budget e Rar_util.Budget.unlimited;
  Alcotest.(check bool) "pop after exhaustion" true (Imply.pop_to e mark);
  Alcotest.(check (option bool)) "branch unwound" None (Imply.node_value e c);
  Alcotest.(check (option bool)) "shared context kept" (Some true)
    (Imply.node_value e a);
  Imply.assign_node e c true;
  Imply.propagate e;
  Alcotest.(check (option bool)) "engine usable after unwind" (Some true)
    (Imply.node_value e c)

(* Marks obey stack discipline: popping to an outer mark invalidates the
   inner one. *)
let test_checkpoint_stack_discipline () =
  let net =
    Builder.of_spec
      ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("g", "abc") ]
      ~outputs:[ "g" ]
  in
  let a = Builder.node net "a" and b = Builder.node net "b" in
  let c = Builder.node net "c" in
  let e = Imply.create net in
  Imply.assign_node e a true;
  let outer = Imply.checkpoint e in
  Imply.assign_node e b true;
  let inner = Imply.checkpoint e in
  Imply.assign_node e c true;
  Alcotest.(check bool) "pop inner" true (Imply.pop_to e inner);
  Alcotest.(check bool) "pop outer" true (Imply.pop_to e outer);
  Alcotest.(check (option bool)) "b unwound" None (Imply.node_value e b);
  Alcotest.(check bool) "inner now below trail" false (Imply.pop_to e inner)

(* ------------------------------------------------------------------ *)
(* Frozen engine                                                       *)
(* ------------------------------------------------------------------ *)

(* The implication engine as it was before cube literals, region
   membership and frozen marks were resolved to slots at build time: it
   reads fanin ids, region and frozen predicates while it propagates.
   Kept verbatim as the reference for the slot arena, whose verdicts,
   values and propagation order (hence budget use) must not move. *)
module Oracle = struct
  open Twolevel
  module Network = Logic_network.Network
  module Counters = Rar_util.Counters

  exception Conflict of string

  (* Three-valued node/cube state packed in bytes. *)
  let v_unknown = '\000'

  let v_false = '\001'

  let v_true = '\002'

  let encode v = if v then v_true else v_false

  let decode = function
    | '\001' -> Some false
    | '\002' -> Some true
    | _ -> None

  (* The engine is an arena: every node of the network owns a slot, values
     live in dense byte arrays indexed by slot (cubes in one flat array laid
     out by [cube_off]), and every assignment is logged on an undo trail so
     the state between redundancy tests is restored in O(assignments)
     instead of rebuilding O(network) hashtables per test. The propagation
     queue is a ring buffer over slots, giving stable FIFO (levelized)
     implication order instead of the legacy LIFO cons-list. *)
  type t = {
    net : Network.t;
    region : Network.node_id -> bool;
    mutable frozen : Network.node_id -> bool;
    mutable budget : Rar_util.Budget.t;
    counters : Counters.t option;
    (* External don't cares: each EXCDC cube is a forbidden input
       pattern, i.e. the clause ¬(cube) the environment guarantees.
       Resolved to slots at build time; [dc_codes] packs (slot, phase)
       as [slot lsl 1 lor neg-bit] (even = positive, as cube codes). *)
    dc : Logic_network.Dont_care.t option;
    mutable dc_codes : int array array;
    mutable dc_watch : int array array; (* input slot -> watching cubes *)
    (* Structure mirrors the network at [built_revision]; [reset] rebuilds
       it when the network has mutated since. Shared by learn-copies. *)
    mutable built_revision : int;
    (* Bumped by every build/reset: marks taken before the bump are stale
       (their trail positions no longer mean anything). *)
    mutable generation : int;
    mutable slot : int array;  (* node id -> slot (-1 when unknown) *)
    mutable node_of : int array;  (* slot -> node id *)
    mutable nslots : int;
    mutable is_input : Bytes.t;  (* slot -> 0/1 *)
    mutable fanins_of : Network.node_id array array;
    mutable fanouts_of : Network.node_id array array;
    mutable cubes_of : Cube.t array array;  (* [||] for inputs *)
    mutable cube_off : int array;  (* slot -> first flat cube index *)
    (* Flat cube index -> literal codes of that cube, decoded once from the
       packed kernel words at build time so propagation walks int arrays
       instead of literal lists. *)
    mutable cube_codes : int array array;
    mutable base_queue : int array;  (* queue right after constant seeding *)
    (* Per-test state (private to each learn-copy). *)
    mutable node_val : Bytes.t;  (* slot -> value *)
    mutable cube_val : Bytes.t;  (* flat cube index -> value *)
    mutable queue : int array;  (* ring buffer of slots *)
    mutable q_head : int;
    mutable q_len : int;
    mutable queued : Bytes.t;  (* slot -> pending flag *)
    mutable trail : int array;  (* slot s, or nslots + flat cube index *)
    mutable trail_len : int;
  }

  let slot_exn t id =
    let s = if id < Array.length t.slot then t.slot.(id) else -1 in
    if s < 0 then
      invalid_arg (Printf.sprintf "Imply: node %d unknown to the arena" id)
    else s

  let enqueue_slot t s =
    if Bytes.get t.queued s = '\000' then begin
      Bytes.set t.queued s '\001';
      let cap = Array.length t.queue in
      let tail = t.q_head + t.q_len in
      t.queue.(if tail >= cap then tail - cap else tail) <- s;
      t.q_len <- t.q_len + 1
    end

  let enqueue t id = enqueue_slot t (slot_exn t id)

  (* (Re)build the arena from the network's current structure and seed the
     constant nodes: their value holds unconditionally, and a node whose
     only fanins are constants would otherwise never be examined. Matching
     the legacy [create], the constants' region fanouts are left pending on
     the queue for the first propagation run to drain. *)
  let build t =
    let net = t.net in
    let ids = List.sort Int.compare (Network.node_ids net) in
    let nslots = List.length ids in
    let max_id = List.fold_left max (-1) ids in
    let slot = Array.make (max_id + 1) (-1) in
    let node_of = Array.make (max 1 nslots) 0 in
    List.iteri
      (fun s id ->
        node_of.(s) <- id;
        slot.(id) <- s)
      ids;
    let is_input = Bytes.make (max 1 nslots) '\000' in
    let fanins_of = Array.make (max 1 nslots) [||] in
    let fanouts_of = Array.make (max 1 nslots) [||] in
    let cubes_of = Array.make (max 1 nslots) [||] in
    let cube_off = Array.make (max 1 (nslots + 1)) 0 in
    let total_cubes = ref 0 in
    List.iteri
      (fun s id ->
        cube_off.(s) <- !total_cubes;
        fanouts_of.(s) <- Array.of_list (Network.fanouts net id);
        if Network.is_input net id then Bytes.set is_input s '\001'
        else begin
          fanins_of.(s) <- Network.fanins net id;
          let cubes = Array.of_list (Cover.cubes (Network.cover net id)) in
          cubes_of.(s) <- cubes;
          total_cubes := !total_cubes + Array.length cubes
        end)
      ids;
    if nslots > 0 then cube_off.(nslots) <- !total_cubes;
    (* Resolve the EXCDC cubes against the current structure. A cube
       naming a signal that is not a primary input of this network is
       dropped — fewer forbidden patterns is always sound. *)
    let dc_codes, dc_watch =
      match t.dc with
      | Some dc ->
        let resolved = ref [] in
        List.iter
          (fun cube ->
            let codes =
              List.filter_map
                (fun (name, phase) ->
                  match Network.find_by_name net name with
                  | Some id
                    when id < Array.length slot && slot.(id) >= 0
                         && Bytes.get is_input slot.(id) = '\001' ->
                    Some ((slot.(id) lsl 1) lor (if phase then 0 else 1))
                  | _ -> None)
                cube
            in
            if List.length codes = List.length cube then
              resolved := Array.of_list codes :: !resolved)
          (Logic_network.Dont_care.excdc dc);
        let dc_codes = Array.of_list (List.rev !resolved) in
        if Array.length dc_codes = 0 then ([||], [||])
        else begin
          let watch = Array.make (max 1 nslots) [] in
          Array.iteri
            (fun c codes ->
              Array.iter
                (fun code -> watch.(code lsr 1) <- c :: watch.(code lsr 1))
                codes)
            dc_codes;
          (dc_codes, Array.map (fun l -> Array.of_list (List.rev l)) watch)
        end
      | None -> ([||], [||])
    in
    let cube_codes = Array.make (max 1 !total_cubes) [||] in
    List.iteri
      (fun s _ ->
        Array.iteri
          (fun i cube ->
            cube_codes.(cube_off.(s) + i) <-
              Cube_kernel.codes_array (Cube.kernel cube))
          cubes_of.(s))
      ids;
    t.built_revision <- Network.revision net;
    t.dc_codes <- dc_codes;
    t.dc_watch <- dc_watch;
    t.generation <- t.generation + 1;
    t.slot <- slot;
    t.node_of <- node_of;
    t.nslots <- nslots;
    t.is_input <- is_input;
    t.fanins_of <- fanins_of;
    t.fanouts_of <- fanouts_of;
    t.cubes_of <- cubes_of;
    t.cube_off <- cube_off;
    t.cube_codes <- cube_codes;
    t.node_val <- Bytes.make (max 1 nslots) v_unknown;
    t.cube_val <- Bytes.make (max 1 !total_cubes) v_unknown;
    t.queue <- Array.make (max 1 nslots) 0;
    t.q_head <- 0;
    t.q_len <- 0;
    t.queued <- Bytes.make (max 1 nslots) '\000';
    t.trail <- Array.make (max 1 (nslots + !total_cubes)) 0;
    t.trail_len <- 0;
    (* Constant seeding (not trailed: part of the reusable baseline). *)
    List.iteri
      (fun s id ->
        if Bytes.get t.is_input s = '\000' then begin
          let cover = Network.cover net id in
          let value =
            if Cover.is_zero cover then Some false
            else if Cover.is_one cover then Some true
            else None
          in
          match value with
          | Some v ->
            Bytes.set t.node_val s (encode v);
            Array.iter
              (fun out -> if t.region out then enqueue t out)
              t.fanouts_of.(s)
          | None -> ()
        end)
      ids;
    t.base_queue <- Array.init t.q_len (fun i -> t.queue.(i));
    (match t.counters with
    | Some c -> Counters.add c.Counters.imply_creates 1
    | None -> ())

  let create ?(region = fun _ -> true) ?(frozen = fun _ -> false)
      ?(budget = Rar_util.Budget.unlimited) ?counters ?dc net =
    let t =
      {
        net;
        region;
        frozen;
        budget;
        counters;
        dc;
        dc_codes = [||];
        dc_watch = [||];
        built_revision = -1;
        generation = 0;
        slot = [||];
        node_of = [||];
        nslots = 0;
        is_input = Bytes.empty;
        fanins_of = [||];
        fanouts_of = [||];
        cubes_of = [||];
        cube_off = [||];
        cube_codes = [||];
        base_queue = [||];
        node_val = Bytes.empty;
        cube_val = Bytes.empty;
        queue = [||];
        q_head = 0;
        q_len = 0;
        queued = Bytes.empty;
        trail = [||];
        trail_len = 0;
      }
    in
    build t;
    t

  let reset ?frozen t =
    (match frozen with Some f -> t.frozen <- f | None -> ());
    if Network.revision t.net <> t.built_revision then build t
    else begin
      t.generation <- t.generation + 1;
      (* Undo the trail, flush the queue, and re-arm the constants'
         pending fanouts — O(assignments + queue), not O(network). *)
      for k = t.trail_len - 1 downto 0 do
        let e = t.trail.(k) in
        if e < t.nslots then Bytes.set t.node_val e v_unknown
        else Bytes.set t.cube_val (e - t.nslots) v_unknown
      done;
      t.trail_len <- 0;
      let cap = Array.length t.queue in
      while t.q_len > 0 do
        let s = t.queue.(t.q_head) in
        Bytes.set t.queued s '\000';
        t.q_head <- (if t.q_head + 1 >= cap then 0 else t.q_head + 1);
        t.q_len <- t.q_len - 1
      done;
      t.q_head <- 0;
      Array.iter
        (fun s ->
          Bytes.set t.queued s '\001';
          t.queue.(t.q_len) <- s;
          t.q_len <- t.q_len + 1)
        t.base_queue;
      (match t.counters with
      | Some c -> Counters.add c.Counters.imply_resets 1
      | None -> ())
    end

  let cubes t id = t.cubes_of.(slot_exn t id)

  let node_value_slot t s = decode (Bytes.get t.node_val s)

  let node_value t id =
    let s = if id < Array.length t.slot then t.slot.(id) else -1 in
    if s < 0 then None else node_value_slot t s

  let cube_value_slot t s i = decode (Bytes.get t.cube_val (t.cube_off.(s) + i))

  let cube_value t id i =
    let s = if id < Array.length t.slot then t.slot.(id) else -1 in
    if s < 0 then None else cube_value_slot t s i

  let assigned_nodes t =
    let acc = ref [] in
    for s = t.nslots - 1 downto 0 do
      match node_value_slot t s with
      | Some v -> acc := (t.node_of.(s), v) :: !acc
      | None -> ()
    done;
    !acc

  let push_trail t e =
    t.trail.(t.trail_len) <- e;
    t.trail_len <- t.trail_len + 1

  (* Record a node value; queue the node and its fanouts for re-examination.
     Constants are pre-seeded with their fanouts pending, so re-asserting
     one is a no-op (as in the legacy engine after its [create]). An
     assigned primary input is additionally checked against the EXCDC
     cubes watching it: a fully-matched forbidden pattern is a conflict
     (the environment never produces it), and a cube with exactly one
     free input whose other literals all hold forces that input to the
     opposite phase — the clause ¬(cube) as a unit implication. *)
  let rec set_node t id v =
    let s = slot_exn t id in
    match node_value_slot t s with
    | Some v' when v' = v -> ()
    | Some _ ->
      raise
        (Conflict (Printf.sprintf "node %s needs both 0 and 1" (Network.name t.net id)))
    | None ->
      Bytes.set t.node_val s (encode v);
      push_trail t s;
      if t.region id then enqueue_slot t s;
      Array.iter
        (fun out -> if t.region out then enqueue t out)
        t.fanouts_of.(s);
      if Array.length t.dc_codes > 0 && Bytes.get t.is_input s = '\001' then
        check_dc t s

  and check_dc t s =
    Array.iter
      (fun c ->
        let codes = t.dc_codes.(c) in
        let m = Array.length codes in
        let unknowns = ref 0 in
        let unknown_at = ref (-1) in
        let dead = ref false in
        for k = 0 to m - 1 do
          if not !dead then begin
            let code = codes.(k) in
            match node_value_slot t (code lsr 1) with
            | None ->
              incr unknowns;
              unknown_at := k
            | Some v -> if v <> (code land 1 = 0) then dead := true
          end
        done;
        if not !dead then
          if !unknowns = 0 then
            raise (Conflict "input pattern forbidden by EXCDC")
          else if !unknowns = 1 then begin
            let code = codes.(!unknown_at) in
            let free_id = t.node_of.(code lsr 1) in
            if not (t.frozen free_id) then set_node t free_id (code land 1 = 1)
          end)
      t.dc_watch.(s)

  let set_cube t id i v =
    let s = slot_exn t id in
    match cube_value_slot t s i with
    | Some v' when v' = v -> ()
    | Some _ ->
      raise
        (Conflict
           (Printf.sprintf "cube %d of %s needs both 0 and 1" i (Network.name t.net id)))
    | None ->
      Bytes.set t.cube_val (t.cube_off.(s) + i) (encode v);
      push_trail t (t.nslots + t.cube_off.(s) + i);
      if t.region id then enqueue_slot t s

  (* Value of the literal with [code] under current fanin values; the
     code's variable indexes the node's fanin array, its low bit is the
     phase (even = positive, as in {!Twolevel.Literal}). *)
  let code_value t fanins code =
    match node_value t fanins.(code lsr 1) with
    | None -> None
    | Some v -> Some (v = (code land 1 = 0))

  (* All local deductions for one logic node. *)
  let process t s =
    let id = t.node_of.(s) in
    if Bytes.get t.is_input s = '\000' && t.region id then begin
      let fanins = t.fanins_of.(s) in
      let off = t.cube_off.(s) in
      let n = Array.length t.cubes_of.(s) in
      (* Cube-level rules. *)
      for i = 0 to n - 1 do
        let codes = t.cube_codes.(off + i) in
        let m = Array.length codes in
        let any_false = ref false in
        let all_true = ref true in
        for k = 0 to m - 1 do
          match code_value t fanins codes.(k) with
          | Some false ->
            any_false := true;
            all_true := false
          | Some true -> ()
          | None -> all_true := false
        done;
        if !any_false then set_cube t id i false
        else if !all_true then set_cube t id i true;
        (match cube_value_slot t s i with
        | Some true ->
          (* AND at 1: every literal must hold. *)
          for k = 0 to m - 1 do
            let code = codes.(k) in
            set_node t fanins.(code lsr 1) (code land 1 = 0)
          done
        | Some false ->
          (* AND at 0 with a single free literal and all others true: the
             free literal must fail. Values are re-read — the Some-true
             branch of earlier cubes may have pinned fanins since the
             any_false/all_true scan. *)
          let unknowns = ref 0 in
          let unknown_at = ref (-1) in
          let others_true = ref true in
          for k = 0 to m - 1 do
            match code_value t fanins codes.(k) with
            | None ->
              incr unknowns;
              unknown_at := k
            | Some true -> ()
            | Some false -> others_true := false
          done;
          if !unknowns = 1 && !others_true then begin
            let code = codes.(!unknown_at) in
            set_node t fanins.(code lsr 1) (code land 1 = 1)
          end
        | None -> ())
      done;
      (* Node-level rules (skipped for fault-carrying nodes). *)
      if not (t.frozen id) then begin
        let cube_vals = Array.init n (fun i -> cube_value_slot t s i) in
        let any_one = Array.exists (fun v -> v = Some true) cube_vals in
        let all_zero = Array.for_all (fun v -> v = Some false) cube_vals in
        if any_one then set_node t id true;
        if all_zero then set_node t id false;
        (match node_value_slot t s with
        | Some false ->
          for i = 0 to n - 1 do
            set_cube t id i false
          done
        | Some true ->
          let live =
            Array.to_list (Array.mapi (fun i v -> (i, v)) cube_vals)
            |> List.filter (fun (_, v) -> v <> Some false)
          in
          (match live with
          | [ (i, _) ] -> set_cube t id i true
          | _ -> ())
        | None -> ())
      end
    end

  (* One fuel unit per dequeued slot: the budget bounds the number of
     propagation steps a fault test may take. [Budget.Exhausted] escapes to
     the first layer with a fallback (e.g. {!Fault.redundant_result}); the
     engine itself stays consistent — a later [reset] rewinds the trail as
     after a conflict. *)
  let run t =
    let cap = Array.length t.queue in
    while t.q_len > 0 do
      Rar_util.Budget.spend t.budget;
      let s = t.queue.(t.q_head) in
      t.q_head <- (if t.q_head + 1 >= cap then 0 else t.q_head + 1);
      t.q_len <- t.q_len - 1;
      Bytes.set t.queued s '\000';
      process t s
    done

  let set_budget t budget = t.budget <- budget

  let propagate t = run t

  (* --- Trail checkpoints ------------------------------------------------- *)

  type mark = {
    m_trail : int;
    m_generation : int;
    m_revision : int;
  }

  let checkpoint t =
    if t.q_len > 0 then
      invalid_arg "Imply.checkpoint: pending implications (propagate first)";
    { m_trail = t.trail_len; m_generation = t.generation;
      m_revision = t.built_revision }

  let pop_to t mark =
    if
      mark.m_generation <> t.generation
      || mark.m_revision <> t.built_revision
      || Network.revision t.net <> t.built_revision
      || mark.m_trail > t.trail_len
    then false
    else begin
      (* Rewind the assignments above the mark, then flush whatever an
         aborted propagation (conflict, exhausted budget) left queued —
         the shared context below the mark had an empty queue. *)
      for k = t.trail_len - 1 downto mark.m_trail do
        let e = t.trail.(k) in
        if e < t.nslots then Bytes.set t.node_val e v_unknown
        else Bytes.set t.cube_val (e - t.nslots) v_unknown
      done;
      t.trail_len <- mark.m_trail;
      let cap = Array.length t.queue in
      while t.q_len > 0 do
        let s = t.queue.(t.q_head) in
        Bytes.set t.queued s '\000';
        t.q_head <- (if t.q_head + 1 >= cap then 0 else t.q_head + 1);
        t.q_len <- t.q_len - 1
      done;
      t.q_head <- 0;
      (match t.counters with
      | Some c -> Counters.add c.Counters.imply_checkpoints 1
      | None -> ());
      true
    end

  let assign_node t id v =
    set_node t id v;
    run t

  let assign_cube t id i v =
    let n = Array.length (cubes t id) in
    if i < 0 || i >= n then invalid_arg "Imply.assign_cube: cube index";
    set_cube t id i v;
    run t

  (* Snapshot for recursive learning: private per-test state is duplicated,
     the structural arrays stay shared. *)
  let copy t =
    {
      t with
      node_val = Bytes.copy t.node_val;
      cube_val = Bytes.copy t.cube_val;
      queue = Array.copy t.queue;
      queued = Bytes.copy t.queued;
      trail = Array.copy t.trail;
    }

  (* --- Recursive learning ------------------------------------------------ *)

  (* Unjustified situations and their justification options, each option
     being a list of primitive assignments. *)
  type option_assignments = [ `Node of Network.node_id * bool | `Cube of Network.node_id * int * bool ] list

  let justification_options t : option_assignments list list =
    let options = ref [] in
    List.iter
      (fun id ->
        if (not (Network.is_input t.net id)) && t.region id && not (t.frozen id)
        then begin
          let s = slot_exn t id in
          let cube_array = t.cubes_of.(s) in
          let n = Array.length cube_array in
          (* OR at 1 with several live cubes and none at 1. *)
          (match node_value_slot t s with
          | Some true ->
            let live =
              List.filter
                (fun i -> cube_value_slot t s i <> Some false)
                (List.init n Fun.id)
            in
            let already =
              List.exists (fun i -> cube_value_slot t s i = Some true) live
            in
            if (not already) && List.length live >= 2 then
              options := List.map (fun i -> [ `Cube (id, i, true) ]) live :: !options
          | Some false | None -> ());
          (* AND at 0 with several free literals. *)
          for i = 0 to n - 1 do
            if cube_value_slot t s i = Some false then begin
              let codes = t.cube_codes.(t.cube_off.(s) + i) in
              let free = ref [] in
              let falsified = ref false in
              Array.iter
                (fun code ->
                  match code_value t t.fanins_of.(s) code with
                  | None -> free := code :: !free
                  | Some false -> falsified := true
                  | Some true -> ())
                codes;
              let free = List.rev !free in
              if (not !falsified) && List.length free >= 2 then begin
                let fanins = t.fanins_of.(s) in
                options :=
                  List.map
                    (fun code -> [ `Node (fanins.(code lsr 1), code land 1 = 1) ])
                    free
                  :: !options
              end
            end
          done
        end)
      (Network.node_ids t.net);
    !options

  let apply_assignment t = function
    | `Node (id, v) -> set_node t id v
    | `Cube (id, i, v) -> set_cube t id i v

  let rec learn ?(max_options = 4) ~depth t =
    if depth > 0 then begin
      let progressed = ref true in
      while !progressed do
        progressed := false;
        let splits = justification_options t in
        let try_option assignments =
          let scratch = copy t in
          match
            List.iter (apply_assignment scratch) assignments;
            run scratch;
            if depth > 1 then learn ~max_options ~depth:(depth - 1) scratch
          with
          | () -> Some scratch
          | exception Conflict _ -> None
        in
        List.iter
          (fun opts ->
            if List.length opts <= max_options then begin
              match List.filter_map try_option opts with
              | [] -> raise (Conflict "all justification options conflict")
              | first :: rest ->
                (* Assert assignments agreed by every surviving option:
                   walk the first survivor's trail (every value it derived
                   beyond [t]'s is on it). *)
                for k = 0 to first.trail_len - 1 do
                  let e = first.trail.(k) in
                  if e < t.nslots then begin
                    match node_value_slot first e with
                    | Some v
                      when node_value_slot t e = None
                           && List.for_all
                                (fun s -> node_value_slot s e = Some v)
                                rest ->
                      set_node t t.node_of.(e) v;
                      progressed := true
                    | Some _ | None -> ()
                  end
                done;
                run t
            end)
          splits
      done
    end
end

(* One random step of a test. *)
type engine_op =
  | Op_node of Network.node_id * bool
  | Op_cube of Network.node_id * int * bool
  | Op_learn
  | Op_checkpoint
  | Op_pop of int

let verdict f =
  match f () with
  | () -> `Ok
  | exception (Imply.Conflict _ | Oracle.Conflict _) -> `Conflict
  | exception Rar_util.Budget.Exhausted _ -> `Exhausted

let random_subset rng ids ~one_in =
  List.filter (fun _ -> Rar_util.Rng.int rng one_in = 0) ids

(* Forbidden input patterns over the network's inputs; some name a
   signal the network lacks, which the engines must both drop. *)
let random_excdc rng net =
  let names = List.map (Network.name net) (Network.inputs net) in
  let cubes = ref [] in
  for _ = 1 to 1 + Rar_util.Rng.int rng 3 do
    let cube =
      List.filter_map
        (fun name ->
          if Rar_util.Rng.int rng 3 = 0 then Some (name, Rar_util.Rng.bool rng)
          else None)
        (if Rar_util.Rng.int rng 5 = 0 then "ghost" :: names else names)
    in
    if cube <> [] then cubes := cube :: !cubes
  done;
  Logic_network.Dont_care.make (List.rev !cubes)

let same_engine_state net e o =
  assigned_nodes net e = Oracle.assigned_nodes o
  && List.for_all
       (fun id ->
         Network.is_input net id
         || List.for_all
              (fun i -> Imply.cube_value e id i = Oracle.cube_value o id i)
              (List.init (Cover.cube_count (Network.cover net id)) Fun.id))
       (Network.node_ids net)

let random_op rng net ids =
  match Rar_util.Rng.int rng 10 with
  | 0 | 1 | 2 | 3 ->
    Op_node (Rar_util.Rng.pick rng ids, Rar_util.Rng.bool rng)
  | 4 | 5 -> (
    let logic = List.filter (fun id -> not (Network.is_input net id)) ids in
    match logic with
    | [] -> Op_learn
    | _ ->
      let id = Rar_util.Rng.pick rng logic in
      let n = Cover.cube_count (Network.cover net id) in
      if n = 0 then Op_learn
      else Op_cube (id, Rar_util.Rng.int rng n, Rar_util.Rng.bool rng))
  | 6 -> Op_learn
  | 7 | 8 -> Op_checkpoint
  | _ -> Op_pop (Rar_util.Rng.int rng 3)

(* Four tests of random steps on the slot arena [e] and the frozen engine
   [o], each after a reset to a fresh frozen set; fails at the first step
   where their verdicts or states differ. *)
let drive_engines rng net ids e o ~frozen_set =
  let fail step =
    failwith (Printf.sprintf "engines diverge at %s" step)
  in
  for test = 1 to 4 do
    let frozen = frozen_set () in
    Imply.reset ~frozen e;
    Oracle.reset ~frozen:(fun id -> List.mem id frozen) o;
    (* Every other test runs on a small fuel budget. *)
    let fuel = if test mod 2 = 0 then Some (Rar_util.Rng.int rng 30) else None in
    let budget () =
      match fuel with
      | Some fuel -> Rar_util.Budget.create ~fuel ()
      | None -> Rar_util.Budget.unlimited
    in
    Imply.set_budget e (budget ());
    Oracle.set_budget o (budget ());
    let marks = ref [] in
    let live = ref true in
    let step name fe fo =
      let ve = verdict fe and vo = verdict fo in
      if ve <> vo || not (same_engine_state net e o) then fail name;
      if ve <> `Ok then live := false
    in
    step "propagate" (fun () -> Imply.propagate e) (fun () -> Oracle.propagate o);
    (* After a conflict or an exhausted budget only a pop goes on. *)
    for _ = 1 to 12 do
      match random_op rng net ids with
      | Op_pop k -> (
        match List.nth_opt !marks k with
        | None -> ()
        | Some (me, mo) ->
          let popped = Imply.pop_to e me in
          if popped <> Oracle.pop_to o mo then fail "pop_to";
          if not (same_engine_state net e o) then fail "after pop_to";
          if popped then live := true)
      | op when !live -> (
        match op with
        | Op_node (id, v) ->
          step "assign_node"
            (fun () -> Imply.assign_node e id v)
            (fun () -> Oracle.assign_node o id v)
        | Op_cube (id, i, v) ->
          step "assign_cube"
            (fun () -> Imply.assign_cube e id i v)
            (fun () -> Oracle.assign_cube o id i v)
        | Op_learn ->
          step "learn"
            (fun () -> Imply.learn ~depth:1 e)
            (fun () -> Oracle.learn ~depth:1 o)
        | Op_checkpoint ->
          marks := (Imply.checkpoint e, Oracle.checkpoint o) :: !marks
        | Op_pop _ -> ())
      | _ -> ()
    done
  done

(* Random region, frozen sets, EXCDC, budgets and assignment sequences
   with checkpoints and pops over mutated DAGs: after every step the slot
   arena and the frozen engine must give the same verdict, the same
   assigned nodes and the same cube values — after a conflict or an
   exhausted budget too, which pins the propagation order. *)
let prop_engine_matches_frozen =
  QCheck2.Test.make ~name:"slot arena matches the frozen engine" ~count:200
    ~print:string_of_int Net_mutations.gen_seed (fun seed ->
      let rng, net = Net_mutations.initial seed in
      Net_mutations.mutate rng net ~steps:(Rar_util.Rng.int rng 12);
      let ids = List.sort Int.compare (Network.node_ids net) in
      let inside =
        if Rar_util.Rng.bool rng then None
        else Some (List.filter (fun _ -> Rar_util.Rng.int rng 4 <> 0) ids)
      in
      let region id =
        match inside with Some l -> List.mem id l | None -> true
      in
      let dc = if Rar_util.Rng.int rng 3 = 0 then Some (random_excdc rng net) else None in
      let frozen_set () =
        if Rar_util.Rng.bool rng then random_subset rng ids ~one_in:4
        else Network.fanout_cone_order net [ Rar_util.Rng.pick rng ids ]
      in
      let frozen = frozen_set () in
      let e = Imply.create ?region:inside ~frozen ?dc net in
      let o = Oracle.create ~region ~frozen:(fun id -> List.mem id frozen) ?dc net in
      drive_engines rng net ids e o ~frozen_set;
      true)

(* Two slot arenas over the same network behave alike: the same random
   steps give the same verdicts and states, on the same fuel (which
   pins the queue a reset leaves as well as the values). *)
let arenas_agree rng net a b =
  let ids = List.sort Int.compare (Network.node_ids net) in
  let fuel = Rar_util.Rng.int rng 25 in
  List.iter
    (fun e -> Imply.set_budget e (Rar_util.Budget.create ~fuel ()))
    [ a; b ];
  let same () =
    assigned_nodes net a = assigned_nodes net b
    && List.for_all
         (fun id ->
           Network.is_input net id
           || List.for_all
                (fun i -> Imply.cube_value a id i = Imply.cube_value b id i)
                (List.init (Cover.cube_count (Network.cover net id)) Fun.id))
         ids
  in
  let step fa fb = verdict fa = verdict fb && same () in
  step (fun () -> Imply.propagate a) (fun () -> Imply.propagate b)
  && List.for_all
       (fun _ ->
         match random_op rng net ids with
         | Op_node (id, v) ->
           step (fun () -> Imply.assign_node a id v) (fun () -> Imply.assign_node b id v)
         | Op_cube (id, i, v) ->
           step (fun () -> Imply.assign_cube a id i v) (fun () -> Imply.assign_cube b id i v)
         | Op_learn | Op_checkpoint | Op_pop _ -> true)
       (List.init 6 Fun.id)

(* After each random wire removal, the [reset] that rebuilds the stale
   arena must leave it behaving like a fresh [create] on the mutated
   network. *)
let prop_rebuild_matches_fresh =
  QCheck2.Test.make ~name:"rebuild after wire removals matches create"
    ~count:150 ~print:string_of_int Net_mutations.gen_seed (fun seed ->
      let rng, net = Net_mutations.initial seed in
      Net_mutations.mutate rng net ~steps:(Rar_util.Rng.int rng 8);
      let ids = List.sort Int.compare (Network.node_ids net) in
      let region =
        if Rar_util.Rng.bool rng then None
        else Some (List.filter (fun _ -> Rar_util.Rng.int rng 4 <> 0) ids)
      in
      let engine = Imply.create ?region net in
      List.for_all
        (fun _ ->
          let wired =
            List.filter
              (fun id -> Fault.all_wires net id <> [])
              (List.sort Int.compare (Network.logic_ids net))
          in
          wired = []
          ||
          let id = Rar_util.Rng.pick rng wired in
          Rewiring.Remove.remove_wire net
            (Rar_util.Rng.pick rng (Fault.all_wires net id));
          let frozen = Network.fanout_cone_order net [ id ] in
          Imply.reset ~frozen engine;
          arenas_agree rng net engine (Imply.create ?region ~frozen net))
        (List.init 8 Fun.id))

(* An arena built inside an attempt that rolls back describes a network
   that is gone. The rollback raises the revision, so the next [reset]
   rebuilds it, and it then behaves like a fresh [create]. *)
let prop_rollback_stales_arena =
  QCheck2.Test.make ~name:"arena built in a rolled-back attempt rebuilds"
    ~count:150 ~print:string_of_int Net_mutations.gen_seed (fun seed ->
      let rng, net = Net_mutations.initial seed in
      Net_mutations.mutate rng net ~steps:(Rar_util.Rng.int rng 8);
      let inside = ref None in
      ignore
        (Network.attempt net (fun () ->
             Net_mutations.mutate rng net ~steps:(1 + Rar_util.Rng.int rng 6);
             inside := Some (Imply.create net);
             None));
      let engine = Option.get !inside in
      Imply.reset engine;
      arenas_agree rng net engine (Imply.create net))

(* Removals that turn a node constant (the last literal of a cube, or
   the last cube): the rebuild seeds the new constant, and the arena
   must then behave like a fresh [create], also while the removed
   node's old value sat on the trail and with later removals on top. *)
let prop_rebuild_constant_matches_fresh =
  QCheck2.Test.make ~name:"rebuild seeding a new constant matches create"
    ~count:150 ~print:string_of_int Net_mutations.gen_seed (fun seed ->
      let rng, net = Net_mutations.initial seed in
      Net_mutations.mutate rng net ~steps:(Rar_util.Rng.int rng 8);
      let engine = Imply.create net in
      let constant_wire id =
        let cubes = Cover.cubes (Network.cover net id) in
        match cubes with
        | [ _ ] -> Some (Fault.Cube_wire { node = id; cube = 0 })
        | _ ->
          List.find_map
            (fun (i, cube) ->
              match Cube.literals cube with
              | [ lit ] -> Some (Fault.Literal_wire { node = id; cube = i; lit })
              | _ -> None)
            (List.mapi (fun i c -> (i, c)) cubes)
      in
      List.for_all
          (fun _ ->
            let candidates =
              List.filter_map
                (fun id ->
                  if Cover.is_zero (Network.cover net id)
                     || Cover.is_one (Network.cover net id)
                  then None
                  else Option.map (fun w -> (id, w)) (constant_wire id))
                (List.sort Int.compare (Network.logic_ids net))
            in
            candidates = []
            ||
            let id, wire = Rar_util.Rng.pick rng candidates in
            (* Leave a value of [id] on the trail, as a finished test does. *)
            Imply.set_budget engine Rar_util.Budget.unlimited;
            (try Imply.assign_node engine id (Rar_util.Rng.bool rng)
             with Imply.Conflict _ -> ());
            Rewiring.Remove.remove_wire net wire;
            Imply.reset engine;
            arenas_agree rng net engine (Imply.create net))
          (List.init 6 Fun.id))

(* A small region in a large network, shaped like a division's: a few
   seed nodes and their fanins. Most nodes get no slot at the build, so
   assignments and EXCDC cubes name nodes outside the region, and
   removals hit nodes inside and outside it. The arena must match the
   frozen engine step for step, and after each removal the rebuilding
   [reset] must match a fresh [create]. *)
let prop_small_region_matches_frozen =
  QCheck2.Test.make
    ~name:"small region in a large network matches the frozen engine"
    ~count:60 ~print:string_of_int Net_mutations.gen_seed (fun seed ->
      let rng = Rar_util.Rng.create seed in
      let net =
        Bench_suite.Generator.random ~seed ~n_inputs:8
          ~n_nodes:(40 + Rar_util.Rng.int rng 40)
          ~n_outputs:4 ()
      in
      let logic () = List.sort Int.compare (Network.logic_ids net) in
      let seeds =
        List.init (1 + Rar_util.Rng.int rng 3) (fun _ ->
            Rar_util.Rng.pick rng (logic ()))
      in
      let inside =
        List.concat_map
          (fun id -> id :: Array.to_list (Network.fanins net id))
          seeds
      in
      let region id = List.mem id inside in
      let dc =
        if Rar_util.Rng.bool rng then Some (random_excdc rng net) else None
      in
      let engine = Imply.create ~region:inside ?dc net in
      List.for_all
        (fun _ ->
          let ids = List.sort Int.compare (Network.node_ids net) in
          let frozen_set () =
            if Rar_util.Rng.bool rng then []
            else Network.fanout_cone_order net [ Rar_util.Rng.pick rng ids ]
          in
          drive_engines rng net ids engine (Oracle.create ~region ?dc net)
            ~frozen_set;
          let wired =
            List.filter (fun id -> Fault.all_wires net id <> []) (logic ())
          in
          wired = []
          ||
          let local = List.filter (fun id -> List.mem id seeds) wired in
          let id =
            Rar_util.Rng.pick rng
              (if local <> [] && Rar_util.Rng.bool rng then local else wired)
          in
          Rewiring.Remove.remove_wire net
            (Rar_util.Rng.pick rng (Fault.all_wires net id));
          Imply.reset ~frozen:[] engine;
          arenas_agree rng net engine (Imply.create ~region:inside ?dc net))
        (List.init 4 Fun.id))

(* Nodes the build leaves without a slot: a constant outside the region
   still holds its value and conflicts with the opposite one, an
   assignment outside the region is recorded and unwound like any
   other, and an EXCDC input outside the region still forces. *)
let test_outside_region () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c"; "e" ]
      ~nodes:[ ("x", "ab"); ("y", "x + c"); ("z", "ce") ]
      ~outputs:[ "y"; "z" ]
  in
  let zero = Network.add_logic net ~name:"zero" ~fanins:[||] Cover.zero in
  Network.add_output net "zero" zero;
  let node = Builder.node net in
  let dc = Logic_network.Dont_care.make [ [ ("a", true); ("e", true) ] ] in
  let e = Imply.create ~region:[ node "x" ] ~dc net in
  Alcotest.(check (option bool)) "constant outside the region" (Some false)
    (Imply.node_value e zero);
  Alcotest.(check bool) "constant among the assigned nodes" true
    (List.mem (zero, false) (assigned_nodes net e));
  Alcotest.check_raises "constant conflicts"
    (Imply.Conflict "node zero needs both 0 and 1") (fun () ->
      Imply.assign_node e zero true);
  Imply.reset e;
  Imply.assign_node e (node "z") true;
  Alcotest.(check (option bool)) "z recorded" (Some true)
    (Imply.node_value e (node "z"));
  Alcotest.(check (option bool)) "e not derived (z is outside)" None
    (Imply.node_value e (node "e"));
  Imply.assign_node e (node "x") true;
  Alcotest.(check (option bool)) "a derived in the region" (Some true)
    (Imply.node_value e (node "a"));
  Alcotest.(check (option bool)) "EXCDC forces e" (Some false)
    (Imply.node_value e (node "e"));
  Imply.reset e;
  Alcotest.(check (option bool)) "z unwound" None
    (Imply.node_value e (node "z"));
  Alcotest.(check (option bool)) "constant kept" (Some false)
    (Imply.node_value e zero)

(* The dominator computation before it walked only the fault's cone:
   filter the global topological order to the TFO, then intersect.
   Kept as the reference for the cone-order version. *)
let frozen_dominators net id =
  let module Node_set = Network.Node_set in
  let tfo = Network.transitive_fanout net [ id ] in
  let order =
    List.filter (fun n -> Node_set.mem n tfo) (Network.topological net)
  in
  let doms = Hashtbl.create 16 in
  List.iter
    (fun x ->
      if x = id then Hashtbl.replace doms x (Node_set.singleton id)
      else begin
        let preds =
          List.filter
            (fun f -> Node_set.mem f tfo)
            (Array.to_list (Network.fanins net x))
        in
        let inter =
          match preds with
          | [] -> Node_set.empty
          | first :: rest ->
            List.fold_left
              (fun acc p -> Node_set.inter acc (Hashtbl.find doms p))
              (Hashtbl.find doms first) rest
        in
        Hashtbl.replace doms x (Node_set.add x inter)
      end)
    order;
  let exits = List.filter (fun x -> Network.is_output net x) order in
  let common =
    match exits with
    | [] -> Node_set.empty
    | first :: rest ->
      List.fold_left
        (fun acc e -> Node_set.inter acc (Hashtbl.find doms e))
        (Hashtbl.find doms first) rest
  in
  List.filter (fun x -> x <> id && Node_set.mem x common) order

let prop_dominators_match_frozen =
  QCheck2.Test.make
    ~name:"dominators from the cone order match the global filter"
    ~count:80 ~print:string_of_int Net_mutations.gen_seed
    (fun seed ->
      let check net =
        List.iter
          (fun id ->
            if Fault.dominators net id <> frozen_dominators net id then
              failwith (Printf.sprintf "dominators of %d moved" id))
          (Network.node_ids net)
      in
      let rng, net = Net_mutations.initial seed in
      check net;
      Net_mutations.mutate rng net ~steps:25 ~after_step:check;
      true)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_remove_preserves;
      prop_remove_with_learning_preserves;
      prop_remove_never_grows;
      prop_redundant_is_sound;
      prop_implication_soundness;
      prop_dominators_match_frozen;
      prop_engine_matches_frozen;
      prop_rebuild_matches_fresh;
      prop_rollback_stales_arena;
      prop_rebuild_constant_matches_fresh;
      prop_small_region_matches_frozen;
    ]

let () =
  Alcotest.run "atpg"
    [
      ( "implication",
        [
          Alcotest.test_case "forward" `Quick test_forward_implication;
          Alcotest.test_case "backward" `Quick test_backward_implication;
          Alcotest.test_case "or backward" `Quick test_or_backward;
          Alcotest.test_case "conflict" `Quick test_conflict_detection;
          Alcotest.test_case "multi-level" `Quick test_implication_through_levels;
          Alcotest.test_case "region restriction" `Quick test_region_restriction;
          Alcotest.test_case "frozen nodes" `Quick test_frozen_node;
          Alcotest.test_case "recursive learning" `Quick test_recursive_learning;
          Alcotest.test_case "learning conflict" `Quick test_learning_conflict;
        ] );
      ( "fault",
        [
          Alcotest.test_case "dominator chain" `Quick test_dominators_chain;
          Alcotest.test_case "reconvergence" `Quick test_dominators_reconvergence;
          Alcotest.test_case "propagation assignments" `Quick
            test_propagation_assignments;
        ] );
      ( "redundancy",
        [
          Alcotest.test_case "contained cube" `Quick test_redundant_contained_cube;
          Alcotest.test_case "consensus literal" `Quick
            test_redundant_literal_consensus;
          Alcotest.test_case "cross-node" `Quick test_redundant_cross_node;
          Alcotest.test_case "irredundant untouched" `Quick
            test_irredundant_untouched;
        ] );
      ( "engine-edge-cases",
        [
          Alcotest.test_case "cube assignment api" `Quick test_cube_assignment_api;
          Alcotest.test_case "constant nodes" `Quick test_constant_node_propagation;
          Alcotest.test_case "learn max options" `Quick test_learn_respects_max_options;
          Alcotest.test_case "all wires" `Quick test_all_wires_count;
          Alcotest.test_case "budget exhaustion" `Quick
            test_redundant_budget_exhausted;
          Alcotest.test_case "extra assumptions" `Quick
            test_redundant_with_extra_assumptions;
          Alcotest.test_case "region removal" `Quick test_remove_with_region;
          Alcotest.test_case "fault injection" `Quick test_inject_semantics;
          Alcotest.test_case "test generation" `Quick test_find_test;
          Alcotest.test_case "redundancy coverage" `Quick test_redundancy_coverage;
        ] );
      ( "arena",
        [
          Alcotest.test_case "reset matches fresh" `Quick
            test_arena_reset_matches_fresh;
          Alcotest.test_case "rebuild on mutation" `Quick
            test_arena_rebuild_on_mutation;
          Alcotest.test_case "outside the region" `Quick test_outside_region;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "branch replay" `Quick test_checkpoint_branch_replay;
          Alcotest.test_case "stale after reset" `Quick
            test_checkpoint_stale_after_reset;
          Alcotest.test_case "stale after rebuild" `Quick
            test_checkpoint_stale_after_revision;
          Alcotest.test_case "requires drained queue" `Quick
            test_checkpoint_requires_propagated;
          Alcotest.test_case "budget unwind" `Quick
            test_checkpoint_budget_unwind;
          Alcotest.test_case "stack discipline" `Quick
            test_checkpoint_stack_discipline;
        ] );
      ( "rar",
        [
          Alcotest.test_case "redundant addition" `Quick test_try_add_redundant_wire;
          Alcotest.test_case "optimize preserves" `Quick test_rar_optimize_preserves;
        ] );
      ("properties", qcheck_cases);
    ]
