(* AIG backend: strashing, AIGER I/O, SOP bridges, and the windowed
   optimisation driver. *)

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
  expect "cyclic definition" ~line:4 "aag 2 1 0 1 1\n2\n4\n4 4 2\n";
  let two_inputs = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n" in
  expect "repeated input name" ~line:7 (two_inputs ^ "i0 a\ni1 a\n");
  expect "input named like a default" ~line:2 (two_inputs ^ "i1 i0\n");
  expect "repeated output name" ~line:8
    "aag 3 2 0 2 1\n2\n4\n6\n6\n6 2 4\no0 y\no1 y\n";
  expect "output named like a default" ~line:5
    "aag 3 2 0 2 1\n2\n4\n6\n6\n6 2 4\no0 o1\n"

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

(* Under an EXCDC view over a few primary inputs the run stays
   equivalent modulo the view and never grows, and a view with no cube
   over the inputs is invisible: the same bytes as no view at all. *)
let test_aig_opt_dc_view () =
  List.iter
    (fun seed ->
      let a = planted_aig seed in
      let before = Aig.compact a in
      let names = List.map fst (Aig.inputs before) in
      let dc =
        Logic_network.Dont_care.make
          (List.map
             (List.map (fun (i, v) -> (List.nth names i, v)))
             [
               [ (0, true); (1, true) ]; [ (2, false); (3, true) ];
               [ (4, true); (5, false) ];
             ])
      in
      let run dc =
        Synth.Aig_opt.optimize
          ~config:{ Synth.Aig_opt.default_config with Synth.Aig_opt.dc }
          a
      in
      let optimised, stats = run dc in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: equivalent modulo the view" seed)
        true
        (Logic_sim.Equiv.check ~dc (Aig.to_network before)
           (Aig.to_network optimised)
        = Logic_sim.Equiv.Equivalent);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: gate count monotone (%d -> %d)" seed
           stats.Synth.Aig_opt.gates_before stats.Synth.Aig_opt.gates_after)
        true
        (stats.Synth.Aig_opt.gates_after <= stats.Synth.Aig_opt.gates_before);
      let plain = Aiger.to_string (fst (Synth.Aig_opt.optimize a)) in
      List.iter
        (fun (what, view) ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d: %s = no view" seed what)
            plain
            (Aiger.to_string (fst (run view))))
        [
          ("empty view", Logic_network.Dont_care.empty);
          ( "view over no input",
            Logic_network.Dont_care.make [ [ ("ghost", true) ] ] );
        ])
    [ 1; 7; 42 ]

(* Every window is checked over all its leaf patterns, so a leaf cap
   beyond [leaf_limit] is refused before any work; so are caps under
   which no window could reach [min_gates], which would skip them all. *)
let test_aig_opt_leaf_limit () =
  let config ?(gates = Synth.Aig_opt.default_config.Synth.Aig_opt.max_gates)
      leaves =
    {
      Synth.Aig_opt.default_config with
      Synth.Aig_opt.max_leaves = leaves;
      max_gates = gates;
    }
  in
  let limit = Synth.Aig_opt.leaf_limit in
  Alcotest.(check bool) "the limit admits the default" true
    (Synth.Aig_opt.default_config.Synth.Aig_opt.max_leaves <= limit);
  ignore (Synth.Aig_opt.optimize ~config:(config limit) (planted_aig 1));
  let _, stats =
    Synth.Aig_opt.optimize
      ~config:(config ~gates:Synth.Aig_opt.min_gates Synth.Aig_opt.min_leaves)
      (planted_aig 1)
  in
  Alcotest.(check bool) "the smallest caps still optimise windows" true
    (stats.Synth.Aig_opt.skipped < stats.Synth.Aig_opt.windows);
  let _, stats =
    Synth.Aig_opt.optimize ~config:(config ~gates:Synth.Aig_opt.min_gates 8)
      (planted_aig 1)
  in
  Alcotest.(check bool) "the smallest gate cap still optimises windows" true
    (stats.Synth.Aig_opt.skipped < stats.Synth.Aig_opt.windows);
  let refused what message config =
    Alcotest.check_raises what
      (Invalid_argument ("Aig_opt.optimize: " ^ message))
      (fun () -> ignore (Synth.Aig_opt.optimize ~config (planted_aig 1)))
  in
  refused "one leaf over the limit"
    (Printf.sprintf "max_leaves %d exceeds %d" (limit + 1) limit)
    (config (limit + 1));
  refused "one leaf under the floor" "max_leaves 2 is below 3" (config 2);
  refused "a negative leaf cap" "max_leaves -3 is below 3" (config (-3));
  refused "one gate under the floor" "max_gates 2 is below 3"
    (config ~gates:2 8);
  refused "no gates" "max_gates 0 is below 3" (config ~gates:0 8)

(* A traced run writes one [aig_window] event per window with the
   seconds of each phase; phases a window never reached read 0, the
   check ([check_s]) times every optimised window, and tracing does not
   move the output. *)
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
    [
      "grow_s"; "collapse_s"; "script_s"; "resub_s"; "check_s"; "splice_s";
      "recount_s";
    ]
  in
  let check_total = ref 0. in
  List.iter
    (fun line ->
      let seconds = List.map (fun p -> float_of_string (field line p)) phases in
      Alcotest.(check bool) "phase seconds are non-negative" true
        (List.for_all (fun s -> s >= 0.) seconds);
      match field line "outcome" with
      | {|"too_small"|} ->
        Alcotest.(check bool) "too_small reaches only grow" true
          (List.for_all (fun s -> s = 0.) (List.tl seconds))
      | {|"cover_blowup"|} ->
        Alcotest.(check bool) "cover_blowup is never checked" true
          (List.for_all (fun s -> s = 0.)
             (List.filteri (fun i _ -> i >= 2) seconds))
      | outcome ->
        check_total := !check_total +. List.nth seconds 4;
        if outcome = {|"unchanged"|} then
          Alcotest.(check (float 0.)) "unchanged skips the recount" 0.
            (List.nth seconds 6))
    windows;
  Alcotest.(check bool) "every optimised window is checked" true
    (!check_total > 0.)

(* ------------------------------------------------------------------ *)
(* Window splice                                                       *)
(* ------------------------------------------------------------------ *)

(* The window splice [Aig_opt] kept before it shared
   [Aig.add_network], kept as its oracle: window input [inputs.(i)] maps
   to the [i]-th leaf, and every node the table lacks is built in
   topological order. *)
module Frozen_splice = struct
  module Cover = Twolevel.Cover
  module Cube = Twolevel.Cube
  module Literal = Twolevel.Literal

  let splice aig wnet ~inputs leaves =
    let value = Hashtbl.create 64 in
    List.iteri
      (fun i leaf ->
        if Network.mem wnet inputs.(i) then
          Hashtbl.replace value inputs.(i) (Aig.lit_of_node leaf))
      leaves;
    let lit_of_cube fanins cube =
      List.fold_left
        (fun acc l ->
          let base = Hashtbl.find value fanins.(Literal.var l) in
          let base = if Literal.is_pos l then base else Aig.lit_not base in
          Aig.add_and aig acc base)
        Aig.const_true (Cube.literals cube)
    in
    List.iter
      (fun id ->
        if not (Hashtbl.mem value id) then begin
          let fanins = Network.fanins wnet id in
          let l =
            List.fold_left
              (fun acc cube -> Aig.add_or aig acc (lit_of_cube fanins cube))
              Aig.const_false
              (Cover.cubes (Network.cover wnet id))
          in
          Hashtbl.replace value id l
        end)
      (Network.topological wnet);
    List.map
      (fun (name, id) -> (name, Hashtbl.find value id))
      (Network.outputs wnet)
end

(* A window the way [Aig_opt] cuts one: the leaves are the inputs of a
   random AIG plus a few of its gates, the roots some output gates
   above them, each collapsed to a cover over the leaves ([None] when a
   cover passes 128 cubes). The network names its inputs [x<i>] and its
   outputs [y<i>], one per root. *)
let random_window (seed, n_inputs, n_gates) =
  let module Cover = Twolevel.Cover in
  let module Cube = Twolevel.Cube in
  let module Literal = Twolevel.Literal in
  let a = Aig.compact (Generator.random_aig ~seed ~n_inputs ~n_gates ()) in
  let rng = Random.State.make [| seed; n_gates |] in
  let gates = List.filter (Aig.is_and a) (List.init (Aig.node_count a) Fun.id) in
  let cut =
    List.filter (fun _ -> Random.State.int rng 8 = 0) gates
    |> List.filteri (fun i _ -> i < 2)
  in
  let leaves = List.init n_inputs (fun i -> i + 1) @ cut in
  let roots =
    List.sort_uniq compare
      (List.map (fun (_, l) -> Aig.lit_node l) (Aig.outputs a))
    |> List.filter (fun g -> Aig.is_and a g && not (List.mem g cut))
    |> List.filteri (fun i _ -> i < 4)
  in
  let memo = Hashtbl.create 64 in
  Hashtbl.replace memo 0 (Cover.zero, Cover.one);
  List.iteri
    (fun v m ->
      Hashtbl.replace memo m
        ( Cover.of_cubes [ Cube.of_literals_exn [ Literal.pos v ] ],
          Cover.of_cubes [ Cube.of_literals_exn [ Literal.neg v ] ] ))
    leaves;
  let rec covers m =
    match Hashtbl.find_opt memo m with
    | Some c -> c
    | None ->
      let of_edge l =
        let p, n = covers (Aig.lit_node l) in
        if Aig.lit_is_compl l then (n, p) else (p, n)
      in
      let p0, n0 = of_edge (Aig.fanin0 a m) and p1, n1 = of_edge (Aig.fanin1 a m) in
      let c = (Cover.product p0 p1, Cover.union n0 n1) in
      if Cover.cube_count (fst c) > 128 || Cover.cube_count (snd c) > 128 then
        raise Exit;
      Hashtbl.replace memo m c;
      c
  in
  match List.map (fun r -> fst (covers r)) roots with
  | exception Exit -> None
  | [] -> None
  | root_covers ->
    let wnet = Network.create () in
    let pis =
      Array.of_list
        (List.mapi
           (fun i _ -> Network.add_input wnet (Printf.sprintf "x%d" i))
           leaves)
    in
    List.iteri
      (fun i cover ->
        let name = Printf.sprintf "y%d" i in
        Network.add_output wnet name
          (Network.add_logic wnet ~name ~fanins:pis cover))
      root_covers;
    Some (a, wnet, pis, leaves)

(* Optimise a window with each method, drop the window inputs nothing
   reads any more (as an optimiser may), and splice it into two equal
   copies of the AIG, one through the frozen loop and one through
   [Aig.add_network]: the output literals and the node counts must
   agree. Returns the inputs dropped, or [None] on a disagreement. *)
let splice_agrees case =
  match random_window case with
  | None -> Some 0
  | Some (a, window, pis, leaves) ->
    List.fold_left
      (fun acc (_, meth) ->
        match acc with
        | None -> None
        | Some dropped ->
          let wnet = Network.copy window in
          let resub = Synth.Script.resub_command meth in
          Synth.Script.run ~resub wnet Synth.Script.script_a;
          resub wnet;
          let unread =
            List.filter
              (fun id -> Network.fanout_count wnet id = 0)
              (Network.inputs wnet)
          in
          List.iter (Network.remove_node wnet) unread;
          let frozen = Aig.compact a and shared = Aig.compact a in
          let expected =
            List.map snd (Frozen_splice.splice frozen wnet ~inputs:pis leaves)
          in
          let leaf = Hashtbl.create 16 in
          List.iteri
            (fun i m -> Hashtbl.replace leaf pis.(i) (Aig.lit_of_node m))
            leaves;
          let got = Aig.add_network shared wnet ~input:(Hashtbl.find leaf) in
          if got = expected && Aig.node_count frozen = Aig.node_count shared
          then Some (dropped + List.length unread)
          else None)
      (Some 0) Synth.Script.resub_methods

let gen_window =
  QCheck2.Gen.(
    let* seed = int_range 0 10_000 in
    let* n_inputs = int_range 2 6 in
    let* n_gates = int_range 3 40 in
    return (seed, n_inputs, n_gates))

let prop_splice_matches_frozen =
  QCheck2.Test.make ~name:"shared builder splices like the frozen loop"
    ~count:40 ~print:print_aig gen_window (fun case ->
      Option.is_some (splice_agrees case))

(* The property above must reach the skipped-input path: over fixed
   seeds some optimised windows drop inputs. *)
let test_splice_drops_inputs () =
  let dropped = ref 0 in
  for seed = 0 to 20 do
    match splice_agrees (seed, 2 + (seed mod 5), 8 + seed) with
    | Some n -> dropped := !dropped + n
    | None -> Alcotest.failf "seed %d: the builders disagree" seed
  done;
  Alcotest.(check bool)
    (Printf.sprintf "window inputs dropped (%d)" !dropped)
    true (!dropped > 0)

(* ------------------------------------------------------------------ *)
(* Incremental live view                                               *)
(* ------------------------------------------------------------------ *)

(* The gain test before the incremental view, kept as its oracle: a
   global DFS of the resolved graph after every splice (which raises
   [Aig.Cycle] on a loop reachable from the outputs), and the reference
   counts rebuilt from scratch after every accepted one. *)
module Frozen = struct
  let live_gate_count a =
    let color = Bytes.make (Aig.node_count a) '\000' in
    let count = ref 0 in
    let visit start =
      let stack = ref [ start ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | node :: rest -> (
          match Bytes.get color node with
          | '\002' -> stack := rest
          | '\001' ->
            Bytes.set color node '\002';
            stack := rest
          | _ ->
            Bytes.set color node '\001';
            if Aig.is_and a node then begin
              incr count;
              let push l =
                let m = Aig.lit_node (Aig.resolve a l) in
                match Bytes.get color m with
                | '\000' -> stack := m :: !stack
                | '\001' -> raise Aig.Cycle
                | _ -> ()
              in
              push (Aig.fanin0 a node);
              push (Aig.fanin1 a node)
            end)
      done
    in
    List.iter
      (fun (_, l) -> visit (Aig.lit_node (Aig.resolve a l)))
      (Aig.outputs a);
    !count

  let refs a =
    let n = Aig.node_count a in
    let live = Array.make n false in
    let refs = Array.make n 0 in
    let stack = Stack.create () in
    let visit l =
      let m = Aig.lit_node (Aig.resolve a l) in
      refs.(m) <- refs.(m) + 1;
      if not live.(m) then begin
        live.(m) <- true;
        if Aig.is_and a m then Stack.push m stack
      end
    in
    List.iter (fun (_, l) -> visit l) (Aig.outputs a);
    while not (Stack.is_empty stack) do
      let g = Stack.pop stack in
      visit (Aig.fanin0 a g);
      visit (Aig.fanin1 a g)
    done;
    refs
end

(* Random splices in the shape [Aig_opt] makes them: a few live roots,
   each replaced by an existing literal, another root (a chain that can
   loop), or a fresh strashed AND over live nodes and roots (which often
   closes a loop through the root's fanout). At every step the verdict
   (cycle, accept on a strict drop, no gain) and the count must equal
   the frozen path's; committed steps, no-gain ones included at random,
   must leave every node's reference count equal to a fresh rebuild. *)
let live_view_steps verdicts (seed, n_inputs, n_gates) =
  let module Live = Logic_network.Aig_live in
  let a = Aig.compact (Generator.random_aig ~seed ~n_inputs ~n_gates ()) in
  let rng = Random.State.make [| seed; n_gates |] in
  let live = Live.create a in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let lit n = Aig.lit_of_node ~compl:(Random.State.bool rng) n in
  let ok = ref true and step = ref 0 in
  while !ok && !step < 30 do
    incr step;
    let refs = Frozen.refs a in
    let live_nodes =
      List.filter (fun n -> refs.(n) > 0) (List.init (Aig.node_count a) Fun.id)
    in
    let gates = List.filter (Aig.is_and a) live_nodes in
    let roots =
      if gates = [] then []
      else
        List.sort_uniq compare
          (List.init (1 + Random.State.int rng 3) (fun _ -> pick gates))
    in
    let replacement () =
      match Random.State.int rng 4 with
      | 0 -> Some (lit (Random.State.int rng (Aig.node_count a)))
      | 1 -> Some (lit (pick roots))
      | k -> (
        let operand () =
          if k = 3 then lit (pick roots) else lit (pick live_nodes)
        in
        (* Strashing onto a node whose substitution chain loops raises;
           the driver never builds over such a node. *)
        match Aig.add_and a (operand ()) (lit (pick live_nodes)) with
        | l -> Some l
        | exception Aig.Cycle -> None)
    in
    let subs =
      List.filter_map
        (fun r ->
          match replacement () with
          | Some l when Aig.lit_node l <> r -> Some (r, l)
          | _ -> None)
        roots
    in
    if subs <> [] then begin
      let current = Frozen.live_gate_count a in
      let got = Live.apply live subs in
      let expected =
        match Frozen.live_gate_count a with
        | exception Aig.Cycle -> `Cycle
        | n when n < current -> `Accept n
        | n -> `No_gain n
      in
      let verdict =
        match got with
        | None -> `Cycle
        | Some n when n < Live.count live -> `Accept n
        | Some n -> `No_gain n
      in
      Hashtbl.replace verdicts
        (match expected with
        | `Cycle -> "cycle"
        | `Accept _ -> "accept"
        | `No_gain _ -> "no_gain")
        ();
      if verdict <> expected then ok := false
      else begin
        (match verdict with
        | `Accept _ -> Live.commit live
        | `No_gain _ when Random.State.bool rng -> Live.commit live
        | _ -> Live.revert live);
        let refs = Frozen.refs a in
        ok :=
          Live.count live = Frozen.live_gate_count a
          && Array.for_all Fun.id
               (Array.mapi (fun n r -> Live.refs live n = r) refs)
      end
    end
  done;
  !ok

let prop_live_view_matches_frozen =
  QCheck2.Test.make ~name:"incremental live count matches the frozen recount"
    ~count:300 ~print:print_aig gen_aig
    (live_view_steps (Hashtbl.create 4))

(* The property above is only as good as its splices: over fixed seeds
   they must reach every verdict. *)
let test_live_view_verdicts () =
  let verdicts = Hashtbl.create 4 in
  for seed = 0 to 40 do
    Alcotest.(check bool)
      (Printf.sprintf "seed %d agrees" seed)
      true
      (live_view_steps verdicts (seed, 2 + (seed mod 5), 10 + seed))
  done;
  List.iter
    (fun v ->
      Alcotest.(check bool) (v ^ " reached") true (Hashtbl.mem verdicts v))
    [ "cycle"; "accept"; "no_gain" ]

let () =
  Alcotest.run "aig"
    [
      ( "core",
        [
          Alcotest.test_case "strash + folding" `Quick test_strash_folding;
        ] );
      ( "aiger",
        [
          Alcotest.test_case "edge shapes" `Quick test_aiger_edge_shapes;
          Alcotest.test_case "parse features" `Quick test_aiger_parse;
          Alcotest.test_case "rejects malformed" `Quick test_aiger_rejects;
          QCheck_alcotest.to_alcotest prop_aiger_roundtrip;
        ] );
      ( "bridges",
        [
          QCheck_alcotest.to_alcotest prop_bridge_equivalence;
          QCheck_alcotest.to_alcotest prop_bridge_from_network;
        ] );
      ( "windowed-opt",
        [
          QCheck_alcotest.to_alcotest prop_splice_matches_frozen;
          Alcotest.test_case "splice reaches dropped inputs" `Quick
            test_splice_drops_inputs;
          QCheck_alcotest.to_alcotest prop_live_view_matches_frozen;
          Alcotest.test_case "live view reaches every verdict" `Quick
            test_live_view_verdicts;
          Alcotest.test_case "monotone + equivalent" `Quick
            test_aig_opt_monotone_and_equivalent;
          Alcotest.test_case "DC view" `Quick test_aig_opt_dc_view;
          Alcotest.test_case "leaf limit" `Quick test_aig_opt_leaf_limit;
          Alcotest.test_case "traced window phases" `Quick
            test_aig_opt_window_phases;
        ] );
    ]
