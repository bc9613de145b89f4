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
  let e = Imply.create ~region:(fun id -> id = y) net in
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
  let e = Imply.create ~frozen:(fun id -> id = g) net in
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
  let region id = id = f || Network.is_input net id in
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
          (Imply.assigned_nodes engine))


(* ------------------------------------------------------------------ *)
(* Circuit SAT and SAT-based test generation                           *)
(* ------------------------------------------------------------------ *)

let test_satisfy_basic () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("g", "ab + c") ]
      ~outputs:[ "g" ]
  in
  let g = Builder.node net "g" in
  (match Atpg.Solve.satisfy net ~node:g ~value:true with
  | Atpg.Solve.Unsat | Atpg.Solve.Exhausted _ ->
    Alcotest.fail "satisfiable goal"
  | Atpg.Solve.Sat model ->
    let assign id = Option.value (List.assoc_opt id model) ~default:false in
    Alcotest.(check bool) "model works" true (Network.eval net assign g));
  (* An unsatisfiable goal: xor(a,a) = 1 via two nodes. *)
  let net2 =
    Builder.of_spec ~inputs:[ "a" ]
      ~nodes:[ ("p", "a"); ("q", "pa' + p'a") ]
      ~outputs:[ "q" ]
  in
  Alcotest.(check bool) "unsat detected" true
    (Atpg.Solve.satisfy net2 ~node:(Builder.node net2 "q") ~value:true
    = Atpg.Solve.Unsat)

let test_miter () =
  let net1 = Builder.of_spec ~inputs:[ "a"; "b" ] ~nodes:[ ("f", "ab") ] ~outputs:[ "f" ] in
  let net2 = Builder.of_spec ~inputs:[ "a"; "b" ] ~nodes:[ ("f", "a + b") ] ~outputs:[ "f" ] in
  let m, out = Atpg.Solve.miter net1 net2 in
  Network.check m;
  (match Atpg.Solve.satisfy m ~node:out ~value:true with
  | Atpg.Solve.Unsat | Atpg.Solve.Exhausted _ ->
    Alcotest.fail "differing circuits must have a distinguishing input"
  | Atpg.Solve.Sat _ -> ());
  let m2, out2 = Atpg.Solve.miter net1 (Network.copy net1) in
  Alcotest.(check bool) "identical circuits yield unsat miter" true
    (Atpg.Solve.satisfy m2 ~node:out2 ~value:true = Atpg.Solve.Unsat)

let prop_sat_test_generation_matches_exhaustive =
  QCheck2.Test.make
    ~name:"SAT-based test generation agrees with exhaustive injection"
    ~count:25 ~print:Network.to_string gen_net (fun net ->
      List.for_all
        (fun id ->
          List.for_all
            (fun wire ->
              let exhaustive = Equiv.equivalent net (Fault.inject net wire) in
              let sat = Atpg.Solve.find_test net wire in
              (* untestable <=> no test found *)
              exhaustive = (sat = Atpg.Solve.Unsat)
              &&
              (* any returned vector must actually detect the fault *)
              match sat with
              | Atpg.Solve.Unsat -> true
              | Atpg.Solve.Exhausted _ -> false
              | Atpg.Solve.Sat vector ->
                let faulty = Fault.inject net wire in
                let assign n nid =
                  Option.value
                    (List.assoc_opt (Network.name n nid) vector)
                    ~default:false
                in
                List.exists
                  (fun (po, good_id) ->
                    let bad_id = List.assoc po (Network.outputs faulty) in
                    Network.eval net (assign net) good_id
                    <> Network.eval faulty (assign faulty) bad_id)
                  (Network.outputs net))
            (Fault.all_wires net id))
        (Network.logic_ids net))

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
      let tfo = Network.transitive_fanout net [ id ] in
      let frozen n = Network.Node_set.mem n tfo in
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

(* Pooled-engine redundancy verdicts must match engine-per-call ones. *)
let test_engine_reuse_redundant_verdicts () =
  let net = Generator.random ~seed:9 ~n_inputs:5 ~n_nodes:10 ~n_outputs:3 () in
  let engine = Imply.create net in
  List.iter
    (fun id ->
      List.iter
        (fun wire ->
          Alcotest.(check bool)
            (Fault.wire_to_string net wire)
            (Fault.redundant net wire)
            (Fault.redundant ~engine net wire))
        (Fault.all_wires net id))
    (Network.logic_ids net)

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
      prop_sat_test_generation_matches_exhaustive;
      prop_dominators_match_frozen;
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
          Alcotest.test_case "circuit sat" `Quick test_satisfy_basic;
          Alcotest.test_case "miter" `Quick test_miter;
          Alcotest.test_case "redundancy coverage" `Quick test_redundancy_coverage;
        ] );
      ( "arena",
        [
          Alcotest.test_case "reset matches fresh" `Quick
            test_arena_reset_matches_fresh;
          Alcotest.test_case "rebuild on mutation" `Quick
            test_arena_rebuild_on_mutation;
          Alcotest.test_case "pooled redundancy verdicts" `Quick
            test_engine_reuse_redundant_verdicts;
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
