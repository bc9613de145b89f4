(* Tests for the simulation-signature engine, its incremental
   invalidation, the cone identities the divisor filters rely on, and
   the soundness of signature-guided divisor filtering. *)

module Network = Logic_network.Network
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
  (* Mutation 1: algebraic substitution rewrites f through set_function. *)
  let f = Builder.node net "f" and d = Builder.node net "D" in
  let d_signature = Signature.signature sigs d in
  Alcotest.(check bool)
    "substitution committed" true
    (Synth.Resub.try_substitute net ~f ~d);
  (* Mutation 2: a fresh node plus a function change referencing it. *)
  let g = Builder.node net "g" in
  let lifted = Logic_network.Lift.cover net g in
  Logic_network.Lift.set_cover net g lifted;
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
     untouched D does not, so it keeps its array). *)
  Alcotest.(check bool)
    "incremental refresh is partial" true
    (Signature.signature sigs d == d_signature);
  (* Mutation 3: an attempt. Rolled back, the engine hears nothing and
     every signature keeps its array; committed, the cone-local refresh
     follows it. *)
  let held = List.map (Signature.signature sigs) (Network.node_ids net) in
  let tie_g keep () =
    Network.set_function net g ~fanins:[||] Twolevel.Cover.one;
    keep
  in
  Alcotest.(check (option unit)) "rolled back" None
    (Network.attempt net (tie_g None));
  List.iter2
    (fun id v ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d untouched" id)
        true
        (Signature.signature sigs id == v))
    (Network.node_ids net) held;
  Alcotest.(check (option unit)) "committed" (Some ())
    (Network.attempt net (tie_g (Some ())));
  check_against_fresh "after a committed attempt";
  (* Mutation 4: node removal via sweep. *)
  ignore (Logic_network.Sweep.run net);
  check_against_fresh "after sweep";
  Signature.detach sigs

(* An open attempt holds its notifications, so a read there raises
   rather than answer from values the attempt may have made stale. *)
let test_read_inside_attempt_raises () =
  let net = resub_example () in
  let sigs = Signature.create net in
  let f = Builder.node net "f" in
  Alcotest.check_raises "read inside an attempt"
    (Invalid_argument "Signature: read inside an open attempt") (fun () ->
      ignore
        (Network.attempt net (fun () ->
             ignore (Signature.signature sigs f);
             Some ())));
  ignore (Signature.signature sigs f);
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
  Logic_network.Lift.set_cover net g (Logic_network.Lift.cover net g);
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
   care mask: the cached mask is recomputed after [refine], the only
   change to the input stimulus. *)
let test_refine_recomputes_care () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("x", "ab"); ("y", "a + c") ]
      ~outputs:[ "x"; "y" ]
  in
  let dc = Dont_care.make [ [ ("a", true); ("b", true) ] ] in
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
  Signature.refine sigs [| true; true; false |];
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
    (Signature.subset_on_care sigs x flipped
    && Signature.subset_on_care sigs flipped x);
  Alcotest.(check bool) "raw signatures differ" false (x = flipped);
  Signature.detach sigs

(* [agreement] against a row-by-row count: the larger of the care rows
   where the two signatures agree and those where they differ, with no
   view, an empty one, a one-cube one before and after a refinement
   (which recomputes the care rows), and a two-cube one. *)
let test_agreement_counts_care_rows () =
  let check name sigs net =
    let ids = List.sort Int.compare (Network.node_ids net) in
    let rows = 64 * Signature.words sigs in
    let care = Signature.care_mask sigs in
    List.iter
      (fun x ->
        List.iter
          (fun y ->
            let a = Signature.signature sigs x
            and b = Signature.signature sigs y in
            let agree = ref 0 and differ = ref 0 in
            for j = 0 to rows - 1 do
              if match care with None -> true | Some m -> row_bit m j then
                if row_bit a j = row_bit b j then incr agree else incr differ
            done;
            Alcotest.(check int)
              (Printf.sprintf "%s: agreement of %d and %d" name x y)
              (max !agree !differ) (Signature.agreement sigs a b))
          ids)
      ids
  in
  let net = Circuits.alu_slice () in
  let first = Network.name net (List.hd (Network.inputs net)) in
  let second = Network.name net (List.nth (Network.inputs net) 1) in
  let plain = Signature.create ~words:2 net in
  check "no view" plain net;
  Signature.detach plain;
  let empty = Signature.create ~words:2 ~dc:Dont_care.empty net in
  check "empty view" empty net;
  Signature.detach empty;
  let dc = Dont_care.make [ [ (first, true) ] ] in
  let sigs = Signature.create ~words:2 ~dc net in
  check "one-cube view" sigs net;
  Signature.refine sigs
    (Array.of_list (List.map (fun _ -> true) (Network.inputs net)));
  check "after a refinement" sigs net;
  Signature.detach sigs;
  let dc = Dont_care.merge dc (Dont_care.make [ [ (second, false) ] ]) in
  let sigs = Signature.create ~words:2 ~dc net in
  check "two-cube view" sigs net;
  Signature.detach sigs

(* The filter is conservative-only: every filtered run yields a network
   equivalent to the original. Each row's factored literal count is
   pinned exactly, so a change that drops an opportunity the ranking used
   to keep shows here. *)
let test_filter_soundness () =
  List.iter
    (fun (name, pinned) ->
      let original = Suite.build (Option.get (Suite.find name)) in
      Synth.Script.run original Synth.Script.script_a;
      let scratch = Network.copy original in
      let stats = Booldiv.Substitute.run scratch in
      Alcotest.(check bool)
        (Printf.sprintf "%s equivalent" name)
        true
        (Equiv.equivalent scratch original);
      Alcotest.(check int)
        (Printf.sprintf "%s ext literals" name)
        pinned (Lit_count.factored scratch);
      let open Rar_util.Counters in
      Alcotest.(check bool)
        "filtered pairs bounded by considered" true
        (Atomic.get stats.Booldiv.Substitute.counters.pairs_filtered
        <= Atomic.get stats.Booldiv.Substitute.counters.pairs_considered))
    [ ("c17", 9); ("alu_slice", 27); ("b9", 63) ]

(* Same for the algebraic baseline. *)
let test_resub_filter_soundness () =
  List.iter
    (fun (name, pinned) ->
      let original = Suite.build (Option.get (Suite.find name)) in
      Synth.Script.run original Synth.Script.script_a;
      let scratch = Network.copy original in
      ignore (Synth.Resub.run scratch);
      Alcotest.(check bool)
        (Printf.sprintf "%s resub equivalent" name)
        true
        (Equiv.equivalent scratch original);
      Alcotest.(check int)
        (Printf.sprintf "%s sis literals" name)
        pinned (Lit_count.factored scratch))
    [ ("alu_slice", 29); ("b9", 64) ]

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
    Logic_network.Lift.set_cover net victim
      (Logic_network.Lift.cover net victim)
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
   refresh, committed attempts deliver theirs at once, and rolled-back
   ones nothing. *)
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

(* The divisor filters ask their cone questions through fanout walks,
   once per dividend: [d] depends on [f] iff [d] is in [f]'s transitive
   fanout, and the fanin cones of [f] and [d] meet iff [d] is in the
   transitive fanout of [f]'s cone. The drivers walk those cones into
   [Network.cone] stamps that live for the whole run, so two cones made
   before the first step serve every dividend and every step here, node
   additions and rolled-back attempts included; each mark must equal the
   [Node_set] walk on every id ever allocated, and each walk must return
   exactly the nodes it added. *)
let prop_cone_identities_under_mutation =
  QCheck2.Test.make ~name:"cone identities hold under mutation" ~count:60
    ~print:string_of_int Net_mutations.gen_seed
    (fun seed ->
      let rng, net = Net_mutations.initial seed in
      let tfo = Network.cone net and meet = Network.cone net in
      let check net =
        let ids = Network.node_ids net in
        let same what c set walked =
          for id = 0 to Network.id_limit net - 1 do
            if Network.in_cone c id <> Network.Node_set.mem id set then
              failwith (Printf.sprintf "%s mark of %d" what id)
          done;
          if
            List.sort_uniq Int.compare walked <> Network.Node_set.elements set
          then failwith (what ^ " walk");
          walked
        in
        List.iter
          (fun f ->
            let fanout = Network.transitive_fanout net [ f ] in
            let cone = Network.transitive_fanin net [ f ] in
            let cone_fanout =
              Network.transitive_fanout net (Network.Node_set.elements cone)
            in
            Network.clear tfo;
            ignore (same "TFO" tfo fanout (Network.mark_fanout net tfo [ f ]));
            Network.clear meet;
            let tfi =
              same "TFI" meet cone (Network.mark_fanin net meet [ f ])
            in
            ignore
              (same "TFO(TFI)" meet cone_fanout
                 (Network.mark_fanout net meet tfi));
            List.iter
              (fun d ->
                if Network.Node_set.mem d fanout <> Network.depends_on net d f
                then failwith (Printf.sprintf "depends_on %d %d" d f);
                let meet =
                  not
                    (Network.Node_set.disjoint cone
                       (Network.transitive_fanin net [ d ]))
                in
                if Network.Node_set.mem d cone_fanout <> meet then
                  failwith (Printf.sprintf "cones of %d and %d" f d))
              ids)
          ids
      in
      check net;
      Net_mutations.mutate rng net ~steps:20 ~after_step:check;
      true)

(* [Signature.rank] against a stable sort by descending score, then the
   first [k]: scores drawn from a few values, so ties are frequent, and
   every pool is also ranked with [k = 0], [k = |pool|] and [k > |pool|]
   (the pool may be empty). Entries are pool positions, so a tie broken
   out of pool order shows. *)
let prop_rank_is_stable_top_k =
  QCheck2.Test.make ~name:"rank is the stable sort's top k" ~count:500
    ~print:QCheck2.Print.(pair int (list int))
    QCheck2.Gen.(
      pair (int_range 0 12) (list_size (int_range 0 20) (int_range 0 3)))
    (fun (k, scores) ->
      let scores = Array.of_list scores in
      let n = Array.length scores in
      let reference k =
        List.init n (fun i -> (i, scores.(i)))
        |> List.stable_sort (fun (_, a) (_, b) -> Int.compare b a)
        |> List.filteri (fun i _ -> i < k)
        |> List.map fst
      in
      List.for_all
        (fun k ->
          Array.to_list
            (Signature.rank ~k ~score:(Array.get scores) (Array.init n Fun.id))
          = reference k)
        [ k; 0; n; n + 3 ])

(* The two-branch divisor filter as it stood before every query went
   through the care mask: unmasked primitives without a view, masked
   ones plus a don't-care-row escape with one. *)
module Frozen_filter = struct
  let popcount64 x =
    let c = ref 0 in
    for b = 0 to 63 do
      if Int64.logand (Int64.shift_right_logical x b) 1L = 1L then incr c
    done;
    !c

  let overlap a b =
    let acc = ref 0 in
    for w = 0 to Array.length a - 1 do
      acc := !acc + popcount64 (Int64.logand a.(w) b.(w))
    done;
    !acc

  let overlap_not a b =
    let acc = ref 0 in
    for w = 0 to Array.length a - 1 do
      acc := !acc + popcount64 (Int64.logand a.(w) (Int64.lognot b.(w)))
    done;
    !acc

  let intersects a b =
    let n = Array.length a in
    let rec scan w =
      w < n && (Int64.logand a.(w) b.(w) <> 0L || scan (w + 1))
    in
    scan 0

  let intersects_not a b =
    let n = Array.length a in
    let rec scan w =
      w < n && (Int64.logand a.(w) (Int64.lognot b.(w)) <> 0L || scan (w + 1))
    in
    scan 0

  let overlap_care m a b = overlap (Array.map2 Int64.logand m a) b

  let overlap_not_care m a b = overlap_not (Array.map2 Int64.logand m a) b

  let intersects_care m a b = intersects (Array.map2 Int64.logand m a) b

  let intersects_not_care m a b =
    intersects_not (Array.map2 Int64.logand m a) b

  let has_slack m = Array.exists (fun w -> w <> -1L) m

  let phase_compatible t ~phase ~f ~d =
    let sf = Signature.signature t f and sd = Signature.signature t d in
    match Signature.care_mask t with
    | None -> if phase then intersects sf sd else intersects_not sf sd
    | Some m ->
      (if phase then intersects_care m sf sd else intersects_not_care m sf sd)
      || has_slack m

  let compatible t ~use_complement ~f ~d =
    let sf = Signature.signature t f and sd = Signature.signature t d in
    match Signature.care_mask t with
    | None -> intersects sf sd || (use_complement && intersects_not sf sd)
    | Some m ->
      intersects_care m sf sd
      || (use_complement && intersects_not_care m sf sd)
      || has_slack m

  let score t ~use_complement ~f ~d =
    let sf = Signature.signature t f and sd = Signature.signature t d in
    match Signature.care_mask t with
    | None ->
      let direct = overlap sf sd in
      if use_complement then max direct (overlap_not sf sd) else direct
    | Some m ->
      let direct = overlap_care m sf sd in
      if use_complement then max direct (overlap_not_care m sf sd) else direct
end

(* [compatible], [phase_compatible] and [score] equal the frozen
   two-branch filter on every node pair of random networks, with no
   view, an empty view, a one-cube and a multi-cube EXCDC view. *)
let prop_masked_filter_matches_frozen =
  QCheck2.Test.make ~name:"masked filter matches the two-branch one"
    ~count:60 ~print:string_of_int Net_mutations.gen_seed (fun seed ->
      let _, net = Net_mutations.initial seed in
      let input i = Network.name net (List.nth (Network.inputs net) i) in
      let view cubes = Some (Dont_care.make cubes) in
      let views =
        [
          None;
          view [];
          view [ [ (input (seed mod 5), seed mod 2 = 0) ] ];
          view
            [
              [ (input 0, true); (input 1, false) ];
              [ (input 2, true); (input 3, true); (input 4, false) ];
              [ (input 1, true); (input 3, false) ];
            ];
        ]
      in
      let ids = Network.node_ids net in
      List.iter
        (fun dc ->
          let sigs = Signature.create ~seed ~words:2 ?dc net in
          List.iter
            (fun f ->
              List.iter
                (fun d ->
                  List.iter
                    (fun b ->
                      if
                        Signature.compatible sigs ~use_complement:b ~f ~d
                        <> Frozen_filter.compatible sigs ~use_complement:b ~f
                             ~d
                        || Signature.phase_compatible sigs ~phase:b ~f ~d
                           <> Frozen_filter.phase_compatible sigs ~phase:b ~f
                                ~d
                        || Signature.score sigs ~use_complement:b ~f ~d
                           <> Frozen_filter.score sigs ~use_complement:b ~f ~d
                      then failwith (Printf.sprintf "pair %d, %d" f d))
                    [ true; false ])
                ids)
            ids;
          Signature.detach sigs)
        views;
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
          Alcotest.test_case "read inside an attempt raises" `Quick
            test_read_inside_attempt_raises;
          Alcotest.test_case "dense store grows, removes, rejects" `Quick
            test_dense_store_growth;
          Alcotest.test_case "refined rows match fresh" `Quick
            test_refined_matches_fresh;
          Alcotest.test_case "refine recomputes the care mask" `Quick
            test_refine_recomputes_care;
          Alcotest.test_case "agreement counts care rows" `Quick
            test_agreement_counts_care_rows;
        ] );
      ( "filter",
        [
          Alcotest.test_case "substitute sound, literals pinned" `Slow
            test_filter_soundness;
          Alcotest.test_case "resub sound, literals pinned" `Slow
            test_resub_filter_soundness;
          Alcotest.test_case "classic divisor kept" `Quick
            test_filter_keeps_classic_divisor;
        ] );
      ( "caches",
        [
          Alcotest.test_case "observer lifecycle" `Quick
            test_observer_lifecycle;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest
            prop_incremental_matches_fresh_under_mutation;
          QCheck_alcotest.to_alcotest prop_cone_identities_under_mutation;
          QCheck_alcotest.to_alcotest prop_rank_is_stable_top_k;
          QCheck_alcotest.to_alcotest prop_masked_filter_matches_frozen;
        ] );
    ]
