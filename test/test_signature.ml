(* Tests for the simulation-signature engine, its incremental
   invalidation, the memoized fanin cache, and the soundness of
   signature-guided divisor filtering. *)

module Network = Logic_network.Network
module Fanin_cache = Logic_network.Fanin_cache
module Builder = Logic_network.Builder
module Lit_count = Logic_network.Lit_count
module Simulate = Logic_sim.Simulate
module Signature = Logic_sim.Signature
module Dont_care = Logic_network.Dont_care
module Equiv = Logic_sim.Equiv
module Suite = Bench_suite.Suite
module Circuits = Bench_suite.Circuits

let small_circuits () =
  [
    ("c17", Circuits.c17 ());
    ("alu_slice", Circuits.alu_slice ());
    ("majority5", Circuits.majority 5);
    ("bcd_to_7seg", Circuits.bcd_to_7seg ());
    ("comparator3", Circuits.comparator 3);
  ]

let check_engine_matches_simulate name net =
  let sigs = Signature.create ~seed:42 ~words:4 net in
  let reference =
    Simulate.run net ~words:4 ~input_values:(Signature.pattern sigs)
  in
  List.iter
    (fun id ->
      Alcotest.(check (array int64))
        (Printf.sprintf "%s node %d" name id)
        (Hashtbl.find reference id)
        (Signature.signature sigs id))
    (Network.node_ids net);
  Signature.detach sigs

let test_matches_simulate () =
  List.iter
    (fun (name, net) -> check_engine_matches_simulate name net)
    (small_circuits ())

(* Bit b of word 0 must equal a plain Network.eval under the assignment
   encoded by the input patterns: the signature semantics are exactly
   bit-parallel simulation. *)
let test_matches_eval () =
  let net = Circuits.c17 () in
  let sigs = Signature.create ~seed:7 ~words:1 net in
  for bit = 0 to 63 do
    let assignment id =
      Int64.logand
        (Int64.shift_right_logical (Signature.pattern sigs id).(0) bit)
        1L
      = 1L
    in
    let values = Network.eval net assignment in
    List.iter
      (fun id ->
        let expect = values id in
        let got =
          Int64.logand
            (Int64.shift_right_logical (Signature.signature sigs id).(0) bit)
            1L
          = 1L
        in
        Alcotest.(check bool)
          (Printf.sprintf "node %d bit %d" id bit)
          expect got)
      (Network.node_ids net)
  done;
  Signature.detach sigs

(* Signatures agree with exhaustive simulation on small suite circuits:
   every distinct signature pair implies the functions differ, and nodes
   that are exhaustively equal share a signature. *)
let test_consistent_with_exhaustive () =
  List.iter
    (fun (name, net) ->
      let n_inputs = List.length (Network.inputs net) in
      Alcotest.(check bool)
        (name ^ " small enough") true (n_inputs <= 10);
      let words = Simulate.exhaustive_words n_inputs in
      let exhaustive =
        Simulate.run net ~words ~input_values:(Simulate.exhaustive_inputs net)
      in
      let sigs = Signature.create ~seed:3 net in
      let ids = Network.node_ids net in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let exh_equal =
                Hashtbl.find exhaustive a = Hashtbl.find exhaustive b
              in
              let sig_equal =
                Signature.signature sigs a = Signature.signature sigs b
              in
              (* Exhaustively equal functions must have equal signatures
                 (signatures are a function of the truth table). *)
              if exh_equal then
                Alcotest.(check bool)
                  (Printf.sprintf "%s: %d=%d implies equal signatures" name a
                     b)
                  true sig_equal)
            ids)
        ids;
      Signature.detach sigs)
    (small_circuits ())

let int64_array = Alcotest.(array int64)

(* f = (a + b)(c + d) + e substitutes D = a + b; g and h sit beside and
   after it. *)
let resub_example () =
  Builder.of_spec
    ~inputs:[ "a"; "b"; "c"; "d"; "e" ]
    ~nodes:
      [
        ("D", "a + b");
        ("f", "ac + ad + bc + bd + e");
        ("g", "ab + cd'");
        ("h", "fg + e'");
      ]
    ~outputs:[ "h"; "f"; "D" ]

(* Incremental re-simulation after mutations must match an engine built
   from scratch on the final network. *)
let test_incremental_matches_fresh () =
  let net = resub_example () in
  let sigs = Signature.create ~seed:11 net in
  let resim0 = Signature.resimulated_count sigs in
  (* Mutation 1: algebraic substitution rewrites f through set_function. *)
  let f = Builder.node net "f" and d = Builder.node net "D" in
  Alcotest.(check bool)
    "substitution committed" true
    (Synth.Resub.try_substitute net ~f ~d);
  (* Mutation 2: a fresh node plus a function change referencing it. *)
  let g = Builder.node net "g" in
  let lifted = Synth.Lift.cover net g in
  Synth.Lift.set_cover net g lifted;
  let check_against_fresh label =
    let fresh = Signature.create ~seed:11 net in
    List.iter
      (fun id ->
        Alcotest.check int64_array
          (Printf.sprintf "%s node %d" label id)
          (Signature.signature fresh id)
          (Signature.signature sigs id))
      (Network.node_ids net);
    Signature.detach fresh
  in
  check_against_fresh "after mutations";
  (* The incremental engine must not have re-simulated the whole network
     for the local edits (h and the edited nodes lie in the fanout; the
     untouched D does not). *)
  let resimulated = Signature.resimulated_count sigs - resim0 in
  Alcotest.(check bool)
    "incremental refresh is partial" true
    (resimulated < 2 * Network.node_count net);
  (* Mutation 3: Rebuilt via overwrite falls back to a full refresh. *)
  let scratch = Network.copy net in
  ignore (Synth.Simplify.run scratch);
  Network.overwrite net scratch;
  check_against_fresh "after overwrite";
  (* Mutation 4: node removal via sweep. *)
  ignore (Logic_network.Sweep.run net);
  check_against_fresh "after sweep";
  Signature.detach sigs

(* The engine keeps signatures in arrays indexed by node id that grow by
   doubling. Nodes added far past the initial capacity (c17 fits in 16
   slots; reserved ids jump past several doublings), a removal, and an
   addition after it must leave the incremental engine equal to a fresh
   one, and a removed or never-allocated id must be a typed error. *)
let test_dense_store_growth () =
  let module Cover = Twolevel.Cover in
  let module Cube = Twolevel.Cube in
  let module Literal = Twolevel.Literal in
  let net = Circuits.c17 () in
  let sigs = Signature.create ~seed:7 ~words:2 net in
  let and2 =
    Cover.of_cubes [ Cube.of_literals_exn [ Literal.pos 0; Literal.neg 1 ] ]
  in
  let or2 =
    Cover.of_cubes
      [
        Cube.of_literals_exn [ Literal.pos 0 ];
        Cube.of_literals_exn [ Literal.pos 1 ];
      ]
  in
  let rng = Random.State.make [| 7 |] in
  let add_some k =
    for i = 1 to k do
      let ids = Array.of_list (Network.node_ids net) in
      let pick () = ids.(Random.State.int rng (Array.length ids)) in
      let a = pick () in
      let b = pick () in
      if a <> b then
        ignore
          (Network.add_logic net ~fanins:[| a; b |]
             (if i land 1 = 0 then and2 else or2))
    done
  in
  let check_against_fresh label =
    let fresh = Signature.create ~seed:7 ~words:2 net in
    List.iter
      (fun id ->
        Alcotest.check int64_array
          (Printf.sprintf "%s node %d" label id)
          (Signature.signature fresh id)
          (Signature.signature sigs id))
      (Network.node_ids net);
    Signature.detach fresh
  in
  let limit0 = Network.id_limit net in
  add_some 40;
  (* A late input lands past the stimulus store's capacity too: 200
     nodes added and removed again leave a gap of unused ids. *)
  let x = List.hd (Network.inputs net) in
  let buf = Cover.of_cubes [ Cube.of_literals_exn [ Literal.pos 0 ] ] in
  List.iter (Network.remove_node net)
    (List.init 200 (fun _ -> Network.add_logic net ~fanins:[| x |] buf));
  let late = Network.add_input net "late" in
  ignore
    (Network.add_logic net ~fanins:[| late; List.hd (Network.inputs net) |] and2);
  add_some 10;
  Alcotest.(check bool)
    "ids grew past the initial capacity" true
    (Network.id_limit net > 4 * max 16 limit0);
  check_against_fresh "after growth";
  let victim =
    List.find
      (fun id ->
        (not (Network.is_input net id))
        && Network.fanout_count net id = 0
        && not (Network.is_output net id))
      (List.rev (Network.node_ids net))
  in
  ignore (Signature.signature sigs victim);
  Network.remove_node net victim;
  let unknown = Invalid_argument "Signature.signature: unknown node" in
  Alcotest.check_raises "removed id" unknown (fun () ->
      ignore (Signature.signature sigs victim));
  add_some 5;
  check_against_fresh "after remove then add";
  Alcotest.check_raises "never allocated" unknown (fun () ->
      ignore (Signature.signature sigs (Network.id_limit net)));
  Alcotest.check_raises "negative id" unknown (fun () ->
      ignore (Signature.signature sigs (-1)));
  Signature.detach sigs

let row_bit (v : int64 array) j =
  Int64.logand (Int64.shift_right_logical v.(j / 64) (j land 63)) 1L = 1L

(* Counterexample rows: a refined engine kept up to date through
   mutations equals a fresh engine on the final network with the rows
   replayed through [refine], each input's
   row bit holds its refined value, and every node's row bit is the
   plain evaluation under that assignment. *)
let test_refined_matches_fresh () =
  let net = resub_example () in
  let sigs = Signature.create ~seed:11 ~words:1 net in
  let handed_out =
    List.map
      (fun id ->
        let v = Signature.signature sigs id in
        (id, v, Array.copy v))
      (Network.node_ids net)
  in
  let a1 = [| true; true; false; true; false |] in
  let a2 = [| false; true; true; false; true |] in
  Signature.refine sigs a1;
  List.iter
    (fun (id, v, kept) ->
      Alcotest.check int64_array
        (Printf.sprintf "node %d signature handed out earlier untouched" id)
        kept v)
    handed_out;
  let f = Builder.node net "f" and d = Builder.node net "D" in
  Alcotest.(check bool)
    "substitution committed" true
    (Synth.Resub.try_substitute net ~f ~d);
  Signature.refine sigs a2;
  let g = Builder.node net "g" in
  Synth.Lift.set_cover net g (Synth.Lift.cover net g);
  Alcotest.(check (list (array bool)))
    "rows oldest first" [ a1; a2 ] (Signature.rows sigs);
  let fresh = Signature.create ~seed:11 ~words:1 net in
  List.iter (Signature.refine fresh) (Signature.rows sigs);
  List.iter
    (fun id ->
      Alcotest.check int64_array
        (Printf.sprintf "refined node %d" id)
        (Signature.signature fresh id)
        (Signature.signature sigs id))
    (Network.node_ids net);
  Signature.detach fresh;
  List.iteri
    (fun j assign ->
      let inputs = Network.inputs net in
      List.iteri
        (fun i id ->
          Alcotest.(check bool)
            (Printf.sprintf "row %d input %d" j i)
            assign.(i)
            (row_bit (Signature.signature sigs id) j))
        inputs;
      let values =
        Network.eval net (fun id ->
            let rec index i = function
              | [] -> raise Not_found
              | x :: tl -> if x = id then i else index (i + 1) tl
            in
            assign.(index 0 inputs))
      in
      List.iter
        (fun id ->
          Alcotest.(check bool)
            (Printf.sprintf "row %d node %d evaluates" j id)
            (values id)
            (row_bit (Signature.signature sigs id) j))
        (Network.node_ids net))
    [ a1; a2 ];
  for _ = 3 to 64 do
    Signature.refine sigs a1
  done;
  Alcotest.check_raises "no free row"
    (Invalid_argument "Signature.refine: no free row") (fun () ->
      Signature.refine sigs a2);
  Signature.detach sigs

(* A refinement that lands in an EXCDC cube must drop that row from the
   care mask: the cached mask is recomputed after [refine] even though
   the view's revision did not move. *)
let test_refine_recomputes_care () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("x", "ab"); ("y", "a + c") ]
      ~outputs:[ "x"; "y" ]
  in
  let dc = Dont_care.create () in
  Dont_care.add_excdc dc [ ("a", true); ("b", true) ];
  let sigs = Signature.create ~seed:5 ~words:1 ~dc net in
  let a = Builder.node net "a" and b = Builder.node net "b" in
  let in_cube j =
    row_bit (Signature.pattern sigs a) j && row_bit (Signature.pattern sigs b) j
  in
  (* Fill rows out of the cube up to the first base row that cares, then
     put the next counterexample inside the cube there. *)
  let rec first_caring j = if in_cube j then first_caring (j + 1) else j in
  let j = first_caring 0 in
  for _ = 1 to j do
    Signature.refine sigs [| false; false; false |]
  done;
  let cares j m = row_bit (Option.get m) j in
  Alcotest.(check bool)
    "row cares before refinement" true
    (cares j (Signature.care_mask sigs));
  let rev = Dont_care.revision dc in
  Signature.refine sigs [| true; true; false |];
  Alcotest.(check int) "view revision unchanged" rev (Dont_care.revision dc);
  Alcotest.(check bool)
    "row is a don't care after refinement" false
    (cares j (Signature.care_mask sigs));
  for k = 0 to j - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "refined row %d still cares" k)
      true
      (cares k (Signature.care_mask sigs))
  done;
  (* The masked comparisons ignore the new don't-care row: x and a copy
     with that row flipped differ nowhere else. *)
  let x = Signature.signature sigs (Builder.node net "x") in
  let flipped = Array.copy x in
  flipped.(j / 64) <-
    Int64.logxor flipped.(j / 64) (Int64.shift_left 1L (j land 63));
  Alcotest.(check bool)
    "equal on care despite the flipped row" true
    (Signature.equal_on_care sigs x flipped);
  Alcotest.(check bool) "raw signatures differ" false (x = flipped);
  Signature.detach sigs

(* The filter is conservative-only: filtered and unfiltered runs both
   yield networks equivalent to the original. *)
let test_filter_soundness () =
  List.iter
    (fun row ->
      let original = Suite.build row in
      Synth.Script.run original Synth.Script.script_a;
      let run_with use_filter =
        let scratch = Network.copy original in
        let config =
          { Booldiv.Substitute.extended_config with use_filter }
        in
        let stats = Booldiv.Substitute.run ~config scratch in
        Alcotest.(check bool)
          (Printf.sprintf "%s equivalent (filter=%b)" row.Suite.name
             use_filter)
          true
          (Equiv.equivalent scratch original);
        (Lit_count.factored scratch, stats)
      in
      let filtered_lits, stats_on = run_with true in
      let unfiltered_lits, stats_off = run_with false in
      (* Quality guard: the filter may lose a few opportunities but not
         collapse the optimisation (alcotest failure if filtered results
         blow up by more than 5%). *)
      Alcotest.(check bool)
        (Printf.sprintf "%s filtered quality within 5%%" row.Suite.name)
        true
        (float_of_int filtered_lits
        <= 1.05 *. float_of_int unfiltered_lits);
      let open Rar_util.Counters in
      Alcotest.(check bool)
        "filtered pairs bounded by considered" true
        (Atomic.get stats_on.Booldiv.Substitute.counters.pairs_filtered
        <= Atomic.get stats_on.Booldiv.Substitute.counters.pairs_considered);
      Alcotest.(check bool)
        "unfiltered run also counts pairs" true
        (Atomic.get stats_off.Booldiv.Substitute.counters.pairs_considered > 0))
    (List.filter
       (fun r -> List.mem r.Suite.name [ "c17"; "alu_slice"; "b9" ])
       Suite.quick_rows)

(* Same for the algebraic baseline. *)
let test_resub_filter_soundness () =
  List.iter
    (fun row ->
      let original = Suite.build row in
      Synth.Script.run original Synth.Script.script_a;
      let run_with use_filter =
        let scratch = Network.copy original in
        ignore (Synth.Resub.run ~use_filter scratch);
        Alcotest.(check bool)
          (Printf.sprintf "%s resub equivalent (filter=%b)" row.Suite.name
             use_filter)
          true
          (Equiv.equivalent scratch original);
        Lit_count.factored scratch
      in
      let filtered = run_with true and unfiltered = run_with false in
      Alcotest.(check bool)
        (Printf.sprintf "%s resub quality within 5%%" row.Suite.name)
        true
        (float_of_int filtered <= 1.05 *. float_of_int unfiltered))
    (List.filter
       (fun r -> List.mem r.Suite.name [ "alu_slice"; "b9" ])
       Suite.quick_rows)

(* A known-good divisor must never be filtered out: the classic resub
   example where f = ac + ad + bc + bd + e and D = a + b. *)
let test_filter_keeps_classic_divisor () =
  let net =
    Builder.of_spec
      ~inputs:[ "a"; "b"; "c"; "d"; "e" ]
      ~nodes:[ ("D", "a + b"); ("f", "ac + ad + bc + bd + e") ]
      ~outputs:[ "f"; "D" ]
  in
  let f = Builder.node net "f" and d = Builder.node net "D" in
  let sigs = Signature.create net in
  Alcotest.(check bool)
    "D compatible with f" true
    (Signature.compatible sigs ~use_complement:true ~f ~d);
  Alcotest.(check bool)
    "direct phase possible" true
    (Signature.phase_compatible sigs ~phase:true ~f ~d);
  Alcotest.(check bool)
    "score positive" true
    (Signature.score sigs ~use_complement:true ~f ~d > 0);
  Signature.detach sigs

let test_fanin_cache () =
  let net = Circuits.alu_slice () in
  let cache = Fanin_cache.create net in
  let check_all label =
    List.iter
      (fun id ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: cone of %d" label id)
          true
          (Network.Node_set.equal
             (Fanin_cache.transitive_fanin cache id)
             (Network.transitive_fanin net [ id ])))
      (Network.node_ids net)
  in
  check_all "fresh";
  let r0 = Network.revision net in
  (* Mutate: rewrite one node through its lifted cover (fires
     Function_changed) and sweep; the cache must flush. *)
  let victim =
    List.find (fun id -> not (Network.is_input net id)) (Network.topological net)
  in
  Synth.Lift.set_cover net victim (Synth.Lift.cover net victim);
  ignore (Logic_network.Sweep.run net);
  Alcotest.(check bool) "revision moved" true (Network.revision net > r0);
  check_all "after mutations";
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (Printf.sprintf "depends_on %d %d" n m)
            (Network.depends_on net n m)
            (Fanin_cache.depends_on cache n ~on:m))
        (Network.node_ids net))
    (Network.node_ids net)

let test_observer_lifecycle () =
  let net = Circuits.c17 () in
  let events = ref 0 in
  let obs = Network.on_mutation net (fun _ -> incr events) in
  let touch () =
    let victim =
      List.find
        (fun id -> not (Network.is_input net id))
        (Network.topological net)
    in
    Synth.Lift.set_cover net victim (Synth.Lift.cover net victim)
  in
  touch ();
  let seen = !events in
  Alcotest.(check bool) "observer fired" true (seen > 0);
  Network.remove_observer net obs;
  touch ();
  Alcotest.(check int) "no events after removal" seen !events

(* Random mutation sequences, most steps removals, with an incremental
   engine attached throughout: after every step each node's signature
   equals a fresh engine's. Rewires and additions take the cone-local
   refresh, overwrites the full one. *)
let prop_incremental_matches_fresh_under_mutation =
  QCheck2.Test.make
    ~name:"incremental refresh matches a fresh engine after mutations"
    ~count:80 ~print:string_of_int Net_mutations.gen_seed
    (fun seed ->
      let rng, net = Net_mutations.initial seed in
      let sigs = Signature.create ~seed:3 ~words:2 net in
      let check net =
        let fresh = Signature.create ~seed:3 ~words:2 net in
        List.iter
          (fun id ->
            if Signature.signature sigs id <> Signature.signature fresh id then
              failwith (Printf.sprintf "signature of %d differs" id))
          (Network.node_ids net);
        Signature.detach fresh
      in
      Net_mutations.mutate rng net ~steps:30 ~after_step:check;
      Signature.detach sigs;
      true)

let () =
  Alcotest.run "signature"
    [
      ( "engine",
        [
          Alcotest.test_case "matches Simulate.run" `Quick
            test_matches_simulate;
          Alcotest.test_case "matches Network.eval per bit" `Quick
            test_matches_eval;
          Alcotest.test_case "consistent with exhaustive simulation" `Quick
            test_consistent_with_exhaustive;
          Alcotest.test_case "incremental matches fresh" `Quick
            test_incremental_matches_fresh;
          Alcotest.test_case "dense store grows, removes, rejects" `Quick
            test_dense_store_growth;
          Alcotest.test_case "refined rows match fresh" `Quick
            test_refined_matches_fresh;
          Alcotest.test_case "refine recomputes the care mask" `Quick
            test_refine_recomputes_care;
        ] );
      ( "filter",
        [
          Alcotest.test_case "substitute sound with/without filter" `Slow
            test_filter_soundness;
          Alcotest.test_case "resub sound with/without filter" `Slow
            test_resub_filter_soundness;
          Alcotest.test_case "classic divisor kept" `Quick
            test_filter_keeps_classic_divisor;
        ] );
      ( "caches",
        [
          Alcotest.test_case "fanin cache matches DFS" `Quick
            test_fanin_cache;
          Alcotest.test_case "observer lifecycle" `Quick
            test_observer_lifecycle;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest
            prop_incremental_matches_fresh_under_mutation;
        ] );
    ]
