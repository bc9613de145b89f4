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
  let lifted = Synth.Lift.cover net g in
  (* Lifted variables are node ids. *)
  let a = Builder.node net "a" in
  Alcotest.(check bool) "lifted support uses node ids" true
    (List.mem a (Cover.support lifted));
  Synth.Lift.set_cover net g lifted;
  Network.check net;
  Alcotest.(check bool) "roundtrip preserves" true (Equiv.equivalent net before)

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
      ("lift", [ Alcotest.test_case "roundtrip" `Quick test_lift_roundtrip ]);
      ("simplify", [ Alcotest.test_case "node" `Quick test_simplify_node ]);
      ( "resub",
        [
          Alcotest.test_case "classic" `Quick test_resub_classic;
          Alcotest.test_case "complement (-d)" `Quick test_resub_complement;
          Alcotest.test_case "boolean gap" `Quick test_resub_misses_boolean;
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
