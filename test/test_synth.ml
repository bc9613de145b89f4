(* Tests for the SIS-like synthesis environment. *)

open Twolevel
module Network = Logic_network.Network
module Builder = Logic_network.Builder
module Lit_count = Logic_network.Lit_count
module Equiv = Logic_sim.Equiv
module Generator = Bench_suite.Generator

(* ------------------------------------------------------------------ *)
(* Lift                                                                *)
(* ------------------------------------------------------------------ *)

let test_lift_roundtrip () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("g", "ab + c'") ]
      ~outputs:[ "g" ]
  in
  let g = Builder.node net "g" in
  let before = Network.copy net in
  let lifted = Logic_network.Lift.cover net g in
  (* Lifted variables are node ids. *)
  let a = Builder.node net "a" in
  Alcotest.(check bool) "lifted support uses node ids" true
    (List.mem a (Cover.support lifted));
  Logic_network.Lift.set_cover net g lifted;
  Network.check net;
  Alcotest.(check bool) "roundtrip preserves" true (Equiv.equivalent net before)

(* Cube-by-cube lifting agrees with the lifted cover, index for index,
   and a node created from a lifted cover lifts back to it. *)
let test_lift_cube_and_add () =
  List.iter
    (fun seed ->
      let net =
        Generator.random ~seed ~n_inputs:6 ~n_nodes:20 ~n_outputs:3 ()
      in
      List.iter
        (fun id ->
          let lifted = Logic_network.Lift.cover net id in
          let cubes = Logic_network.Lift.cubes net id in
          Alcotest.(check bool) "cubes agree with the cover" true
            (Cover.equal (Cover.of_cubes cubes) lifted);
          Alcotest.(check bool) "cube i lifts cube i" true
            (List.equal Cube.equal cubes
               (List.map
                  (Logic_network.Lift.cube net id)
                  (Cover.cubes (Network.cover net id))));
          let copy = Logic_network.Lift.add net lifted in
          Alcotest.(check bool) "add then cover round-trips" true
            (Cover.equal (Logic_network.Lift.cover net copy) lifted))
        (List.sort Int.compare (Network.logic_ids net));
      Network.check net)
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Simplify                                                            *)
(* ------------------------------------------------------------------ *)

let test_simplify_node () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ]
      ~nodes:[ ("g", "ab + ab' + a'b") ]
      ~outputs:[ "g" ]
  in
  let before = Network.copy net in
  let changed = Synth.Simplify.run net in
  Alcotest.(check bool) "changed" true (changed > 0);
  Alcotest.(check bool) "preserved" true (Equiv.equivalent net before);
  Alcotest.(check int) "minimal" 2
    (Cover.literal_count (Network.cover net (Builder.node net "g")))

(* ------------------------------------------------------------------ *)
(* Algebraic resubstitution                                            *)
(* ------------------------------------------------------------------ *)

let test_resub_classic () =
  (* f = ac + ad + bc + bd + e, D = a + b: algebraic resub rewrites
     f = D(c + d) + e. *)
  let net =
    Builder.of_spec
      ~inputs:[ "a"; "b"; "c"; "d"; "e" ]
      ~nodes:[ ("D", "a + b"); ("f", "ac + ad + bc + bd + e") ]
      ~outputs:[ "f"; "D" ]
  in
  let before = Network.copy net in
  let f = Builder.node net "f" and d = Builder.node net "D" in
  Alcotest.(check bool) "committed" true (Synth.Resub.try_substitute net ~f ~d);
  Alcotest.(check bool) "preserved" true (Equiv.equivalent net before);
  Alcotest.(check bool) "f uses D" true
    (Array.exists (Int.equal d) (Network.fanins net f));
  (* f = D(c + d) + e: 4 factored literals, down from 9 flat. *)
  Alcotest.(check int) "4 factored literals" 4 (Lit_count.node_factored net f)

let test_resub_complement () =
  (* f = a'b'c with D = a + b: only the -d flavour (divide by D') works. *)
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("D", "a + b"); ("f", "a'b'c + ab + ac") ]
      ~outputs:[ "f"; "D" ]
  in
  let before = Network.copy net in
  let f = Builder.node net "f" and d = Builder.node net "D" in
  Alcotest.(check bool) "plain resub fails" false
    (Synth.Resub.try_substitute ~use_complement:false net ~f ~d);
  Alcotest.(check bool) "resub -d succeeds" true
    (Synth.Resub.try_substitute ~use_complement:true net ~f ~d);
  Alcotest.(check bool) "preserved" true (Equiv.equivalent net before)

let test_resub_redundant_divisor () =
  (* D = av + av' + b names v but computes a + b, so D' = a'b' divides
     f = a'b'c + a'b'x although f never names v: the support test must
     read D's function, not its cover. *)
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c"; "v"; "x" ]
      ~nodes:[ ("D", "av + av' + b"); ("f", "a'b'c + a'b'x") ]
      ~outputs:[ "f"; "D" ]
  in
  let before = Network.copy net in
  let f = Builder.node net "f" and d = Builder.node net "D" in
  Alcotest.(check bool) "resub -d succeeds" true
    (Synth.Resub.try_substitute net ~f ~d);
  Alcotest.(check bool) "preserved" true (Equiv.equivalent net before);
  Alcotest.(check int) "f = D'(c + x)" 3 (Lit_count.node_factored net f)

let test_resub_misses_boolean () =
  (* xor has no algebraic quotient by a + b. *)
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ]
      ~nodes:[ ("D", "a + b"); ("f", "ab' + a'b") ]
      ~outputs:[ "f"; "D" ]
  in
  let f = Builder.node net "f" and d = Builder.node net "D" in
  Alcotest.(check bool) "resub cannot" false
    (Synth.Resub.try_substitute net ~f ~d);
  Alcotest.(check bool) "boolean division can" true
    (Booldiv.Basic_division.try_divide net ~f ~d <> None)

(* The attempt before it decided ahead of the mutation, kept as the
   reference: install the rebuilt cover, count, restore on a loss. *)
module Frozen_resub = struct
  module Lift = Logic_network.Lift

  let attempt net ~f ~d_cover ~d_lit =
    let q, r = Algebraic.divide (Lift.cover net f) d_cover in
    if Cover.is_zero q then false
    else begin
      let d_single = Cover.of_cubes [ Cube.of_literals_exn [ d_lit ] ] in
      let rebuilt = Cover.union (Cover.product q d_single) r in
      let before_cover = Network.cover net f in
      let before_fanins = Network.fanins net f in
      let before_lits = Lit_count.node_factored net f in
      match Lift.set_cover net f rebuilt with
      | exception Network.Cyclic _ -> false
      | () ->
        Lit_count.node_factored net f < before_lits
        || begin
             Network.set_function net f ~fanins:before_fanins before_cover;
             false
           end
    end

  let try_substitute net ~f ~d =
    not
      (f = d
      || Network.is_input net f
      || Network.is_input net d
      || Network.depends_on net d f)
    && (attempt net ~f ~d_cover:(Lift.cover net d) ~d_lit:(Literal.pos d)
       ||
       match Minimize.complement ~limit:64 (Lift.cover net d) with
       | None -> false
       | Some d_not -> attempt net ~f ~d_cover:d_not ~d_lit:(Literal.neg d))
end

(* Whether [Resub]'s support test turns the pair down: [d]'s functional
   support, renamed to node ids, leaves [f]'s fanins. *)
let support_rejects net ~f ~d =
  let f_fanins = Network.fanins net f and d_fanins = Network.fanins net d in
  List.exists
    (fun v -> not (Array.mem d_fanins.(v) f_fanins))
    (Logic_network.Lit_floor.functional_support (Network.cover net d))

(* Every ordered pair of logic nodes of a scripted circuit, in turn, on
   one network that keeps each win: a losing attempt leaves the revision
   alone, and a winning one stores the fanins and cover the frozen
   set-then-compare attempt, which has no support test, stores on a
   copy. The pairs the support test turns down must be losses of the
   frozen attempt. *)
let test_resub_decides_before_mutating () =
  let wins = ref 0 and losses = ref 0 and rejected = ref 0 in
  List.iter
    (fun name ->
      let net =
        Bench_suite.Suite.build (Option.get (Bench_suite.Suite.find name))
      in
      Synth.Script.run net Synth.Script.script_a;
      let ids = List.sort Int.compare (Network.logic_ids net) in
      List.iter
        (fun f ->
          List.iter
            (fun d ->
              let reference = Network.copy net in
              let rejects = support_rejects net ~f ~d in
              let expected = Frozen_resub.try_substitute reference ~f ~d in
              let rev = Network.revision net in
              let got = Synth.Resub.try_substitute net ~f ~d in
              Alcotest.(check bool) "same verdict" expected got;
              if rejects then begin
                incr rejected;
                Alcotest.(check bool) "a rejected pair cannot win" false
                  expected
              end;
              if got then begin
                incr wins;
                Alcotest.(check (array int)) "same fanins"
                  (Network.fanins reference f) (Network.fanins net f);
                Alcotest.(check bool) "same cover" true
                  (Cover.equal (Network.cover reference f) (Network.cover net f))
              end
              else begin
                incr losses;
                Alcotest.(check int) "revision unchanged" rev
                  (Network.revision net)
              end)
            ids)
        ids)
    [ "alu_slice"; "9sym"; "b9" ];
  Alcotest.(check bool) "some attempts won" true (!wins > 0);
  Alcotest.(check bool) "some attempts lost" true (!losses > 0);
  Alcotest.(check bool) "the support test rejected some pairs" true
    (!rejected > 0)

(* Random covers over a few shared variables. A divisor cube is mostly a
   dividend cube with literals dropped, so quotients are often nonzero,
   and sometimes gains a literal on a variable the dividend lacks. *)
let gen_division_pair =
  let nvars = 6 in
  QCheck2.Gen.(
    let lit = map2 (fun v p -> Literal.make v p) (int_range 0 (nvars - 1)) bool in
    let cube = map Cube.of_literals (list_size (int_range 0 4) lit) in
    let* f_cubes = list_size (int_range 1 5) cube in
    let f_cubes = List.filter_map Fun.id f_cubes in
    let from_f =
      if f_cubes = [] then cube
      else
        let* c = oneofl f_cubes in
        let lits = Cube.literals c in
        let* keep = list_repeat (List.length lits) bool in
        let* extra = list_size (int_range 0 1) lit in
        let kept = List.filteri (fun i _ -> List.nth keep i) lits in
        return (Cube.of_literals (kept @ extra))
    in
    let* d_cubes = list_size (int_range 1 3) (oneof [ from_f; from_f; cube ]) in
    return
      ( Cover.of_cubes f_cubes,
        Cover.of_cubes (List.filter_map Fun.id d_cubes) ))

(* The fact the support test rests on: when [d]'s functional support
   leaves the variables [f]'s cover names, no cover of [d] or of its
   complement divides [f]. *)
let prop_support_test_exact =
  QCheck2.Test.make ~name:"resub support test rejects only zero quotients"
    ~count:1000
    ~print:(fun (f, d) -> Cover.to_string f ^ " / " ^ Cover.to_string d)
    gen_division_pair
    (fun (f, d) ->
      let f_support = Cover.support f in
      List.for_all
        (fun v -> List.mem v f_support)
        (Logic_network.Lit_floor.functional_support d)
      || Cover.is_zero (Algebraic.quotient f d)
         && Cover.is_zero (Algebraic.quotient f (Complement.cover d))
         &&
         match Minimize.complement ~limit:64 d with
         | None -> true
         | Some d_not -> Cover.is_zero (Algebraic.quotient f d_not))

(* [Resub.candidates] before the per-run table, kept as the reference:
   every scan tests and ranks every node against a live engine. *)
let frozen_candidates ~counters ~sigs ~tfo net ~f ~nodes =
  let module Signature = Logic_sim.Signature in
  let module Counters = Rar_util.Counters in
  Network.clear tfo;
  ignore (Network.mark_fanout net tfo [ f ]);
  let admitted =
    List.filter
      (fun d ->
        d <> f
        && Network.mem net d
        &&
        let admit =
          (not (Network.in_cone tfo d))
          && Signature.compatible sigs ~use_complement:true ~f ~d
        in
        Counters.add counters.Counters.pairs_considered 1;
        if not admit then Counters.add counters.Counters.pairs_filtered 1;
        admit)
      nodes
  in
  Signature.rank ~k:32
    ~score:(fun d -> Signature.score sigs ~use_complement:true ~f ~d)
    (Array.of_list admitted)

(* A table made before a run's commits answers every later scan as the
   frozen filter does on a fresh engine: the same divisors in the same
   order, and the same pair counts. Dividends are first scanned before,
   between and after batches of random sis commits, so both stored and
   lazily made orders meet a moved TFO(f). *)
let prop_candidates_match_frozen =
  let profiles = [ "9sym"; "alu2"; "C2670"; "C5315" ] in
  QCheck2.Test.make ~name:"ranked-once candidates match the frozen filter"
    ~count:24 ~print:QCheck2.Print.(triple string int bool)
    QCheck2.Gen.(triple (oneofl profiles) (int_range 1 100_000) bool)
    (fun (name, seed, script_a) ->
      let module Signature = Logic_sim.Signature in
      let module Counters = Rar_util.Counters in
      let net =
        match Bench_suite.Suite.find name with
        | Some { Bench_suite.Suite.source = Synthetic profile; _ } ->
          Generator.planted ~seed profile
        | Some _ | None -> assert false
      in
      if script_a then Synth.Script.run net Synth.Script.script_a;
      let rng = Random.State.make [| seed |] in
      let sigs = Signature.create net in
      Signature.detach sigs;
      let ranking = Synth.Resub.ranking sigs net in
      let nodes = List.sort Int.compare (Network.logic_ids net) in
      let tfo = Network.cone net in
      let pairs c =
        ( Atomic.get c.Counters.pairs_considered,
          Atomic.get c.Counters.pairs_filtered )
      in
      let compare_scans dividends =
        let fresh = Signature.create net in
        Fun.protect ~finally:(fun () -> Signature.detach fresh) @@ fun () ->
        List.for_all
          (fun f ->
            let c = Counters.create () and c' = Counters.create () in
            let got = Synth.Resub.candidates ~counters:c ranking ~f in
            let want =
              frozen_candidates ~counters:c' ~sigs:fresh ~tfo net ~f ~nodes
            in
            got = want && pairs c = pairs c')
          dividends
      in
      let commits = ref 0 in
      let commit_some () =
        let shuffled =
          List.concat_map (fun f -> List.map (fun d -> (f, d)) nodes) nodes
          |> List.map (fun p -> (Random.State.bits rng, p))
          |> List.sort compare |> List.map snd
        in
        let want = 1 + Random.State.int rng 3 and landed = ref 0 in
        List.iter
          (fun (f, d) ->
            if !landed < want && Synth.Resub.try_substitute net ~f ~d then
              incr landed)
          shuffled;
        commits := !commits + !landed
      in
      let half = List.filter (fun _ -> Random.State.bool rng) nodes in
      let ok_before = compare_scans half in
      commit_some ();
      let ok_between = compare_scans nodes in
      commit_some ();
      let ok_after = compare_scans nodes in
      Network.check net;
      ok_before && ok_between && ok_after)

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

let test_gcx () =
  let net =
    Builder.of_spec
      ~inputs:[ "a"; "b"; "c"; "d"; "e"; "g"; "h" ]
      ~nodes:[ ("f1", "abc + d"); ("f2", "abe + d'"); ("f3", "abg + h") ]
      ~outputs:[ "f1"; "f2"; "f3" ]
  in
  let before = Network.copy net in
  let lits_before = Lit_count.factored net in
  let extracted = Synth.Extract.gcx net in
  Network.check net;
  Alcotest.(check bool) "extracted a cube" true (extracted >= 1);
  Alcotest.(check bool) "preserved" true (Equiv.equivalent net before);
  Alcotest.(check bool) "did not grow" true (Lit_count.factored net <= lits_before)

let test_gkx () =
  let net =
    Builder.of_spec
      ~inputs:[ "a"; "b"; "c"; "d"; "e"; "g"; "h"; "i" ]
      ~nodes:
        [ ("f1", "ac + bc + d"); ("f2", "ae + be + g"); ("f3", "ah + bh + i") ]
      ~outputs:[ "f1"; "f2"; "f3" ]
  in
  let before = Network.copy net in
  let lits_before = Lit_count.factored net in
  let extracted = Synth.Extract.gkx net in
  Network.check net;
  Alcotest.(check bool) "extracted the kernel a + b" true (extracted >= 1);
  Alcotest.(check bool) "preserved" true (Equiv.equivalent net before);
  Alcotest.(check bool) "reduced" true (Lit_count.factored net < lits_before)

(* ------------------------------------------------------------------ *)
(* Scripts                                                             *)
(* ------------------------------------------------------------------ *)

let planted_net seed =
  Generator.planted ~seed
    {
      inputs = 10;
      noise_nodes = 6;
      algebraic_plants = 2;
      boolean_plants = 2;
      gdc_plants = 1;
      outputs = 4;
    }

let test_script_a () =
  let net = planted_net 3 in
  let before = Network.copy net in
  Synth.Script.run net Synth.Script.script_a;
  Network.check net;
  Alcotest.(check bool) "preserved" true (Equiv.equivalent net before);
  Alcotest.(check bool) "not grown" true
    (Lit_count.factored net <= Lit_count.factored before)

let test_script_algebraic_with_hooks () =
  List.iter
    (fun resub ->
      let net = planted_net 4 in
      let before = Network.copy net in
      Synth.Script.run ~resub net Synth.Script.script_algebraic;
      Network.check net;
      Alcotest.(check bool) "preserved" true (Equiv.equivalent net before))
    [
      Synth.Script.resub_command Algebraic;
      Synth.Script.resub_command Basic;
      Synth.Script.resub_command Ext;
    ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_planted =
  QCheck2.Gen.(
    let* seed = int_range 1 100_000 in
    return (planted_net seed))

let preserves name transform =
  QCheck2.Test.make ~name ~count:20 ~print:Network.to_string gen_planted
    (fun net ->
      let before = Network.copy net in
      transform net;
      Network.check net;
      Equiv.equivalent before net)

let prop_resub_preserves =
  preserves "algebraic resub preserves function" (fun net ->
      ignore (Synth.Resub.run net))

let prop_gcx_preserves =
  preserves "gcx preserves function" (fun net -> ignore (Synth.Extract.gcx net))

let prop_gkx_preserves =
  preserves "gkx preserves function" (fun net -> ignore (Synth.Extract.gkx net))

let prop_simplify_preserves =
  preserves "simplify preserves function" (fun net ->
      ignore (Synth.Simplify.run net))

let prop_script_b_preserves =
  preserves "script B preserves function" (fun net ->
      Synth.Script.run net Synth.Script.script_b)


(* ------------------------------------------------------------------ *)
(* Full simplify (fanin satisfiability don't cares)                    *)
(* ------------------------------------------------------------------ *)

let test_full_simplify_uses_fanin_dc () =
  (* x = ab, f = xa + c: x=1 implies a=1 so the literal a is droppable —
     plain simplify cannot see it, full_simplify can. *)
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("x", "ab"); ("f", "xa + c") ]
      ~outputs:[ "f"; "x" ]
  in
  let before = Network.copy net in
  let f = Builder.node net "f" in
  Alcotest.(check bool) "plain simplify finds nothing" false
    (Synth.Simplify.node net f);
  Alcotest.(check bool) "dc is non-trivial" false
    (Cover.is_zero (Synth.Full_simplify.node_dc net f));
  Alcotest.(check bool) "full simplify rewrites" true
    (Synth.Full_simplify.node net f);
  Network.check net;
  Alcotest.(check bool) "preserved" true (Equiv.equivalent net before);
  Alcotest.(check int) "literal dropped" 2
    (Cover.literal_count (Network.cover net f))

let test_full_simplify_skips_foreign_support () =
  (* x = ab where neither a nor b is visible to f: the only n-visible fact
     about x alone is nothing, so the don't care is empty. *)
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("x", "ab"); ("f", "xc") ]
      ~outputs:[ "f"; "x" ]
  in
  let f = Builder.node net "f" in
  Alcotest.(check bool) "no usable dc" true
    (Cover.is_zero (Synth.Full_simplify.node_dc net f))

let prop_full_simplify_preserves =
  preserves "full_simplify preserves function" (fun net ->
      ignore (Synth.Full_simplify.run net))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_support_test_exact;
      prop_candidates_match_frozen;
      prop_resub_preserves;
      prop_gcx_preserves;
      prop_gkx_preserves;
      prop_simplify_preserves;
      prop_script_b_preserves;
      prop_full_simplify_preserves;
    ]

let () =
  Alcotest.run "synth"
    [
      ( "lift",
        [
          Alcotest.test_case "roundtrip" `Quick test_lift_roundtrip;
          Alcotest.test_case "cube and add" `Quick test_lift_cube_and_add;
        ] );
      ("simplify", [ Alcotest.test_case "node" `Quick test_simplify_node ]);
      ( "resub",
        [
          Alcotest.test_case "classic" `Quick test_resub_classic;
          Alcotest.test_case "complement (-d)" `Quick test_resub_complement;
          Alcotest.test_case "redundant divisor cover" `Quick
            test_resub_redundant_divisor;
          Alcotest.test_case "boolean gap" `Quick test_resub_misses_boolean;
          Alcotest.test_case "decides before mutating" `Quick
            test_resub_decides_before_mutating;
        ] );
      ( "extract",
        [
          Alcotest.test_case "gcx" `Quick test_gcx;
          Alcotest.test_case "gkx" `Quick test_gkx;
        ] );
      ( "scripts",
        [
          Alcotest.test_case "script A" `Quick test_script_a;
          Alcotest.test_case "script.algebraic hooks" `Slow
            test_script_algebraic_with_hooks;
        ] );
      ( "full-simplify",
        [
          Alcotest.test_case "uses fanin dc" `Quick test_full_simplify_uses_fanin_dc;
          Alcotest.test_case "foreign support skipped" `Quick
            test_full_simplify_skips_foreign_support;
        ] );
      ("properties", qcheck_cases);
    ]
