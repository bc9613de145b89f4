(* AIG backend: strashing, AIGER I/O, index lists, SOP bridges, and the
   windowed optimisation driver. *)

module Aig = Logic_network.Aig
module Aiger = Logic_network.Aiger
module Network = Logic_network.Network
module Generator = Bench_suite.Generator

(* ------------------------------------------------------------------ *)
(* Structural hashing                                                  *)
(* ------------------------------------------------------------------ *)

let test_strash_folding () =
  let a = Aig.create () in
  let x = Aig.add_input a "x" and y = Aig.add_input a "y" in
  let n1 = Aig.add_and a x y in
  let n2 = Aig.add_and a y x in
  Alcotest.(check int) "commuted AND shares the node" n1 n2;
  Alcotest.(check int) "a & a = a" x (Aig.add_and a x x);
  Alcotest.(check int) "a & !a = 0" Aig.const_false
    (Aig.add_and a x (Aig.lit_not x));
  Alcotest.(check int) "a & 1 = a" x (Aig.add_and a x Aig.const_true);
  Alcotest.(check int) "a & 0 = 0" Aig.const_false
    (Aig.add_and a x Aig.const_false);
  Alcotest.(check int) "one gate allocated" 1 (Aig.num_ands a);
  let c = Aig.add_and a (Aig.lit_not x) (Aig.lit_not y) in
  Alcotest.(check bool) "different gate for different fanins" true
    (Aig.lit_node c <> Aig.lit_node n1);
  Alcotest.(check int) "two gates now" 2 (Aig.num_ands a)

(* ------------------------------------------------------------------ *)
(* Bit-parallel evaluation                                             *)
(* ------------------------------------------------------------------ *)

let test_eval_words () =
  let a = Aig.create () in
  let x = Aig.add_input a "x" and y = Aig.add_input a "y" in
  let xor = Aig.add_or a
      (Aig.add_and a x (Aig.lit_not y))
      (Aig.add_and a (Aig.lit_not x) y)
  in
  Aig.add_output a "f" xor;
  Aig.add_output a "t" Aig.const_true;
  let patterns = [| [| 0b1010L |]; [| 0b1100L |] |] in
  let outs = Aig.eval_words a ~input_values:(fun i -> patterns.(i)) ~words:1 in
  Alcotest.(check int64) "xor word" 0b0110L (List.assoc "f" outs).(0);
  Alcotest.(check int64) "const-true word" (-1L) (List.assoc "t" outs).(0)

(* ------------------------------------------------------------------ *)
(* AIGER round trips                                                   *)
(* ------------------------------------------------------------------ *)

let roundtrips a =
  let s = Aiger.to_string a in
  let b = Aiger.parse s in
  Aig.equal b (Aig.compact a) && String.equal (Aiger.to_string b) s

(* Complemented outputs, constant outputs, and an output tapping a
   primary input directly — all the edge shapes of the format. *)
let test_aiger_edge_shapes () =
  let a = Aig.create () in
  let x = Aig.add_input a "x" and y = Aig.add_input a "y" in
  let g = Aig.add_and a x y in
  Aig.add_output a "f" (Aig.lit_not g);
  Aig.add_output a "t" Aig.const_true;
  Aig.add_output a "z" Aig.const_false;
  Aig.add_output a "w" x;
  Alcotest.(check bool) "edge shapes round trip" true (roundtrips a);
  let b = Aiger.parse (Aiger.to_string a) in
  List.iter
    (fun (name, expect) ->
      Alcotest.(check int)
        (name ^ " literal survives")
        expect
        (List.assoc name (Aig.outputs b)))
    [ ("t", Aig.const_true); ("z", Aig.const_false) ]

let test_aiger_parse () =
  (* Out-of-order AND definitions are legal as long as they resolve. *)
  let text = "aag 4 2 0 1 2\n2\n4\n8\n8 6 4\n6 2 4\ni0 x\ni1 y\no0 f\n" in
  let a = Aiger.parse text in
  Alcotest.(check int) "two gates" 2 (Aig.num_ands a);
  Alcotest.(check bool) "out-of-order parse round trips" true (roundtrips a);
  (* CRLF text parses identically. *)
  let crlf =
    String.concat "\r\n" (String.split_on_char '\n' text)
  in
  Alcotest.(check bool) "CRLF parse agrees" true
    (Aig.equal (Aiger.parse crlf) (Aig.compact a))

let test_aiger_rejects () =
  let expect tag ~line text =
    match Aiger.parse text with
    | _ -> Alcotest.failf "%s: accepted" tag
    | exception Aiger.Parse_error e ->
      Alcotest.(check int) (tag ^ ": line") line e.line
  in
  expect "binary format" ~line:1 "aig 2 1 0 1 1\n";
  expect "latches" ~line:1 "aag 2 1 1 0 0\n2\n4 2\n";
  expect "malformed header" ~line:1 "not an aiger file\n";
  expect "truncated" ~line:2 "aag 2 1 0 1 1\n2\n";
  expect "odd input literal" ~line:2 "aag 1 1 0 0 0\n3\n";
  expect "undefined output" ~line:3 "aag 2 1 0 1 0\n2\n4\n";
  expect "cyclic definition" ~line:4 "aag 2 1 0 1 1\n2\n4\n4 4 2\n"

let gen_aig =
  QCheck2.Gen.(
    let* seed = int_range 0 10_000 in
    let* n_inputs = int_range 2 6 in
    let* n_gates = int_range 1 60 in
    return (seed, n_inputs, n_gates))

let print_aig (seed, n_inputs, n_gates) =
  Printf.sprintf "seed=%d inputs=%d gates=%d" seed n_inputs n_gates

let prop_aiger_roundtrip =
  QCheck2.Test.make ~name:"write/parse round trip on random AIGs" ~count:100
    ~print:print_aig gen_aig (fun (seed, n_inputs, n_gates) ->
      roundtrips (Generator.random_aig ~seed ~n_inputs ~n_gates ()))

(* ------------------------------------------------------------------ *)
(* Index lists                                                         *)
(* ------------------------------------------------------------------ *)

let test_index_list_shape () =
  let a = Aig.create () in
  let x = Aig.add_input a "i0" and y = Aig.add_input a "i1" in
  let g = Aig.add_and a x y in
  Aig.add_output a "o0" (Aig.lit_not g);
  let il = Aig.to_index_list a in
  (* Fanins are stored normalised, larger literal first. *)
  Alcotest.(check (array int)) "encoding" [| 2; 1; 1; 4; 2; 7 |] il;
  Alcotest.(check bool) "decode reproduces" true
    (Aig.equal (Aig.of_index_list il) a)

let prop_index_list_roundtrip =
  QCheck2.Test.make ~name:"index-list round trip on random AIGs" ~count:100
    ~print:print_aig gen_aig (fun (seed, n_inputs, n_gates) ->
      let a = Aig.compact (Generator.random_aig ~seed ~n_inputs ~n_gates ()) in
      Aig.equal (Aig.of_index_list (Aig.to_index_list a)) a)

(* ------------------------------------------------------------------ *)
(* SOP bridges                                                         *)
(* ------------------------------------------------------------------ *)

(* AIG -> Network -> AIG -> Network must be a fixpoint of the function,
   proven formally by the BDD checker on window-sized cases. *)
let prop_bridge_equivalence =
  QCheck2.Test.make ~name:"AIG<->SOP bridges preserve the function"
    ~count:60 ~print:print_aig gen_aig (fun (seed, n_inputs, n_gates) ->
      let a = Generator.random_aig ~seed ~n_inputs ~n_gates () in
      let net = Aig.to_network a in
      let net2 = Aig.to_network (Aig.of_network net) in
      Robdd.Of_network.equivalent net net2)

(* And starting from the SOP side: a random network survives the trip
   through the AIG world. *)
let prop_bridge_from_network =
  QCheck2.Test.make ~name:"Network->AIG->Network preserves the function"
    ~count:60 ~print:string_of_int
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let net = Generator.random ~seed ~n_inputs:5 ~n_nodes:8 () in
      Robdd.Of_network.equivalent net (Aig.to_network (Aig.of_network net)))

(* ------------------------------------------------------------------ *)
(* Windowed optimisation                                               *)
(* ------------------------------------------------------------------ *)

let planted_aig seed =
  Aig.of_network
    (Generator.planted ~seed
       {
         Generator.inputs = 12;
         noise_nodes = 10;
         algebraic_plants = 3;
         boolean_plants = 3;
         gdc_plants = 1;
         outputs = 6;
       })

let test_aig_opt_monotone_and_equivalent () =
  List.iter
    (fun seed ->
      let a = planted_aig seed in
      let before = Aig.compact a in
      let optimised, stats = Synth.Aig_opt.optimize a in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: gate count monotone (%d -> %d)" seed
           stats.Synth.Aig_opt.gates_before stats.Synth.Aig_opt.gates_after)
        true
        (stats.Synth.Aig_opt.gates_after <= stats.Synth.Aig_opt.gates_before);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: gates_after is the live count" seed)
        stats.Synth.Aig_opt.gates_after
        (Aig.num_ands optimised);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: window accounting adds up" seed)
        stats.Synth.Aig_opt.windows
        (stats.Synth.Aig_opt.accepted + stats.Synth.Aig_opt.reverted
       + stats.Synth.Aig_opt.skipped);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: function preserved" seed)
        true
        (Robdd.Of_network.equivalent (Aig.to_network before)
           (Aig.to_network optimised)))
    [ 1; 7; 42 ]

let test_aig_opt_verified_windows () =
  let config =
    { Synth.Aig_opt.default_config with Synth.Aig_opt.verify_windows = true }
  in
  let a = planted_aig 5 in
  let before = Aig.compact a in
  let optimised, stats = Synth.Aig_opt.optimize ~config a in
  Alcotest.(check bool) "monotone under verification" true
    (stats.Synth.Aig_opt.gates_after <= stats.Synth.Aig_opt.gates_before);
  Alcotest.(check bool) "function preserved under verification" true
    (Robdd.Of_network.equivalent (Aig.to_network before)
       (Aig.to_network optimised))

(* A traced run writes one [aig_window] event per window with the
   seconds of each phase; phases a window never reached read 0, and
   tracing does not move the output. *)
let test_aig_opt_window_phases () =
  let path = Filename.temp_file "aig_window" ".jsonl" in
  let trace = Rar_util.Trace.to_file path in
  let traced, stats = Synth.Aig_opt.optimize ~trace (planted_aig 3) in
  Rar_util.Trace.close trace;
  let untraced, _ = Synth.Aig_opt.optimize (planted_aig 3) in
  Alcotest.(check string) "tracing leaves the output alone"
    (Aiger.to_string untraced) (Aiger.to_string traced);
  let lines = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let windows =
    List.filter
      (fun l -> String.starts_with ~prefix:{|{"event": "aig_window"|} l)
      (String.split_on_char '\n' lines)
  in
  Alcotest.(check int) "one event per window" stats.Synth.Aig_opt.windows
    (List.length windows);
  let field line name =
    let key = Printf.sprintf {|"%s": |} name in
    let rec find i =
      if String.sub line i (String.length key) = key then i + String.length key
      else find (i + 1)
    in
    let start = find 0 in
    let stop = ref start in
    while line.[!stop] <> ',' && line.[!stop] <> '}' do incr stop done;
    String.sub line start (!stop - start)
  in
  let phases =
    [ "grow_s"; "collapse_s"; "script_s"; "resub_s"; "splice_s"; "recount_s" ]
  in
  List.iter
    (fun line ->
      let seconds = List.map (fun p -> float_of_string (field line p)) phases in
      Alcotest.(check bool) "phase seconds are non-negative" true
        (List.for_all (fun s -> s >= 0.) seconds);
      match field line "outcome" with
      | {|"too_small"|} ->
        Alcotest.(check bool) "too_small reaches only grow" true
          (List.for_all (fun s -> s = 0.) (List.tl seconds))
      | {|"unchanged"|} ->
        Alcotest.(check (float 0.)) "unchanged skips the recount" 0.
          (List.nth seconds 5)
      | _ -> ())
    windows

let () =
  Alcotest.run "aig"
    [
      ( "core",
        [
          Alcotest.test_case "strash + folding" `Quick test_strash_folding;
          Alcotest.test_case "eval words" `Quick test_eval_words;
        ] );
      ( "aiger",
        [
          Alcotest.test_case "edge shapes" `Quick test_aiger_edge_shapes;
          Alcotest.test_case "parse features" `Quick test_aiger_parse;
          Alcotest.test_case "rejects malformed" `Quick test_aiger_rejects;
          QCheck_alcotest.to_alcotest prop_aiger_roundtrip;
        ] );
      ( "index-lists",
        [
          Alcotest.test_case "encoding shape" `Quick test_index_list_shape;
          QCheck_alcotest.to_alcotest prop_index_list_roundtrip;
        ] );
      ( "bridges",
        [
          QCheck_alcotest.to_alcotest prop_bridge_equivalence;
          QCheck_alcotest.to_alcotest prop_bridge_from_network;
        ] );
      ( "windowed-opt",
        [
          Alcotest.test_case "monotone + equivalent" `Quick
            test_aig_opt_monotone_and_equivalent;
          Alcotest.test_case "verified windows" `Quick
            test_aig_opt_verified_windows;
          Alcotest.test_case "traced window phases" `Quick
            test_aig_opt_window_phases;
        ] );
    ]
