(* Tests for the multilevel network substrate, simulation, BLIF and BDDs. *)

open Twolevel
module Network = Logic_network.Network
module Builder = Logic_network.Builder
module Sweep = Logic_network.Sweep
module Collapse = Logic_network.Collapse
module Lit_count = Logic_network.Lit_count
module Blif = Logic_network.Blif
module Equiv = Logic_sim.Equiv
module Simulate = Logic_sim.Simulate
module Generator = Bench_suite.Generator

let mux_net () =
  Builder.of_spec
    ~inputs:[ "s"; "a"; "b" ]
    ~nodes:[ ("f", "sa + s'b") ]
    ~outputs:[ "f" ]

let adder_net () =
  Builder.of_spec
    ~inputs:[ "a"; "b"; "c" ]
    ~nodes:
      [
        ("sum", "ab'c' + a'bc' + a'b'c + abc");
        ("carry", "ab + ac + bc");
      ]
    ~outputs:[ "sum"; "carry" ]

(* ------------------------------------------------------------------ *)
(* Construction and structural queries                                 *)
(* ------------------------------------------------------------------ *)

let test_builder_basics () =
  let net = mux_net () in
  Alcotest.(check int) "node count" 4 (Network.node_count net);
  Alcotest.(check int) "inputs" 3 (List.length (Network.inputs net));
  let f = Builder.node net "f" in
  Alcotest.(check int) "f fanins" 3 (Array.length (Network.fanins net f));
  Alcotest.(check bool) "f is output" true (Network.is_output net f);
  Alcotest.(check int) "flat literals" 4 (Lit_count.flat net);
  Network.check net

let test_eval () =
  let net = mux_net () in
  let s = Builder.node net "s" and a = Builder.node net "a" and b = Builder.node net "b" in
  let f = Builder.node net "f" in
  let run sv av bv =
    let assign id = (id = s && sv) || (id = a && av) || (id = b && bv) in
    Network.eval net assign f
  in
  Alcotest.(check bool) "s=1 selects a" true (run true true false);
  Alcotest.(check bool) "s=1 selects a (a=0)" false (run true false true);
  Alcotest.(check bool) "s=0 selects b" true (run false false true);
  Alcotest.(check bool) "s=0 selects b (b=0)" false (run false true false)

let test_fanout_tracking () =
  let net = adder_net () in
  let a = Builder.node net "a" in
  Alcotest.(check int) "a feeds two nodes" 2 (List.length (Network.fanouts net a));
  let sum = Builder.node net "sum" in
  Alcotest.(check (list string)) "sum drives output" [ "sum" ]
    (List.filter_map
       (fun (po, id) -> if id = sum then Some po else None)
       (Network.outputs net))

let test_set_function_cycle_guard () =
  let net =
    Builder.of_spec ~inputs:[ "a" ]
      ~nodes:[ ("g", "a"); ("h", "g") ]
      ~outputs:[ "h" ]
  in
  let g = Builder.node net "g" and h = Builder.node net "h" in
  Alcotest.check_raises "cycle rejected"
    (Network.Cyclic (Printf.sprintf "fanin %d depends on node %d" h g))
    (fun () ->
      Network.set_function net g
        ~fanins:[| h |]
        (Parse.cover_default "a"))

let test_duplicate_fanin_merge () =
  let net = Network.create () in
  let a = Network.add_input net "a" in
  (* Cover v0·v1 with both slots pointing at [a] collapses to a buffer. *)
  let g =
    Network.add_logic net ~name:"g" ~fanins:[| a; a |] (Parse.cover_default "ab")
  in
  Alcotest.(check int) "fanins merged" 1 (Array.length (Network.fanins net g));
  Alcotest.(check int) "one literal" 1 (Cover.literal_count (Network.cover net g))

(* Merging the duplicate [i0] makes ab'c'd contradictory, and it was the
   only cube naming [i4]: the node must not keep [i4] as a fanin (and
   the fanout edge to it). *)
let test_merge_drops_unnamed_fanin () =
  let net = Network.create () in
  let i = Array.init 5 (fun k -> Network.add_input net (Printf.sprintf "i%d" k)) in
  let g0 = Network.add_logic net ~name:"g0" ~fanins:[| i.(1) |] (Parse.cover_default "a") in
  Network.set_function net g0
    ~fanins:[| i.(4); i.(0); i.(3); i.(0) |]
    (Parse.cover_default "ab'c'd + bcd + b'c");
  Alcotest.(check (array int)) "fanins" [| i.(0); i.(3) |] (Network.fanins net g0);
  Alcotest.(check string) "cover" "ab + a'b" (Cover.to_string (Network.cover net g0));
  Alcotest.(check int) "no fanout edge to i4" 0 (Network.fanout_count net i.(4));
  Network.check net

let test_topological () =
  let net = adder_net () in
  let order = Network.topological net in
  let position id =
    match List.find_index (Int.equal id) order with
    | Some i -> i
    | None -> Alcotest.fail "node missing from topological order"
  in
  List.iter
    (fun id ->
      Array.iter
        (fun fanin ->
          Alcotest.(check bool) "fanin before fanout" true
            (position fanin < position id))
        (Network.fanins net id))
    (Network.node_ids net)

(* An attempt keeps its mutations when it returns [Some] and rolls them
   back when it returns [None] or raises. *)
let test_attempt_keeps_or_rolls_back () =
  let net = adder_net () in
  let snapshot = Network.copy net in
  let sum = Builder.node net "sum" in
  let diverge () =
    Network.set_function net sum ~fanins:(Network.fanins net sum)
      (Parse.cover_default "a");
    Alcotest.(check bool) "diverged" false (Equiv.equivalent net snapshot)
  in
  Alcotest.(check (option unit)) "rolled back" None
    (Network.attempt net (fun () -> diverge (); None));
  Alcotest.(check bool) "restored" true (Equiv.equivalent net snapshot);
  Alcotest.check_raises "re-raised" Exit (fun () ->
      ignore (Network.attempt net (fun () -> diverge (); raise Exit)));
  Alcotest.(check bool) "restored after a raise" true
    (Equiv.equivalent net snapshot);
  Alcotest.(check bool) "closed" false (Network.in_attempt net);
  Alcotest.(check (option int)) "kept" (Some 1)
    (Network.attempt net (fun () -> diverge (); Some 1));
  Alcotest.(check bool) "still diverged" false (Equiv.equivalent net snapshot);
  Network.check net

let unknown_node net id =
  Alcotest.check_raises
    (Printf.sprintf "node %d is unknown" id)
    (Invalid_argument (Printf.sprintf "Network: unknown node %d" id))
    (fun () -> ignore (Network.name net id));
  Alcotest.(check bool) (Printf.sprintf "mem %d" id) false (Network.mem net id)

(* [node] and [mem] on ids the id-indexed store has no node for:
   negative ids, ids past its end, removed ids (one at a time and in a
   run of 200, which leaves a gap far past the store's first capacity),
   and ids a rolled-back attempt allocated. *)
let test_node_store_edges () =
  let net = adder_net () in
  List.iter (unknown_node net)
    [ -1; min_int; Network.id_limit net; 63; 64; 1_000_000 ];
  let a = Builder.node net "a" and b = Builder.node net "b" in
  let g = Network.add_logic net ~fanins:[| a; b |] (Parse.cover_default "ab") in
  Network.remove_node net g;
  unknown_node net g;
  Alcotest.check_raises "depends_on from a removed node"
    (Invalid_argument (Printf.sprintf "Network: unknown node %d" g))
    (fun () -> ignore (Network.depends_on net g a));
  List.iter (Network.remove_node net)
    (List.init 200 (fun _ ->
         Network.add_logic net ~fanins:[| a |] (Parse.cover_default "a")));
  let far = Network.add_logic net ~fanins:[| a |] (Parse.cover_default "a'") in
  Alcotest.(check bool) "node past the removed ids" true (Network.mem net far);
  Alcotest.(check string) "its name" (Printf.sprintf "n%d" far)
    (Network.name net far);
  unknown_node net (far - 1);
  Network.check net;
  (* Grow a network far past its first capacity inside an attempt that
     rolls back: the added ids are unknown again, the allocator is back
     at its old limit, and new nodes land there. *)
  let big = adder_net () in
  let limit = Network.id_limit big in
  let ids = ref [] in
  ignore
    (Network.attempt big (fun () ->
         ids :=
           List.init 150 (fun _ ->
               Network.add_logic big ~fanins:[| Builder.node big "a" |]
                 (Parse.cover_default "a"));
         None));
  List.iter (unknown_node big) !ids;
  Alcotest.(check int) "allocator back at its limit" limit
    (Network.id_limit big);
  let fresh =
    Network.add_logic big ~fanins:[| Builder.node big "b" |]
      (Parse.cover_default "a'")
  in
  Alcotest.(check int) "first new id" limit fresh;
  Network.check big

(* A copy owns its store: nodes later added to, rewired in or removed
   from either side never show in the other. *)
let test_copy_isolated () =
  let net = adder_net () in
  let a = Builder.node net "a" and c = Builder.node net "c" in
  let spare = Network.add_logic net ~fanins:[| a; c |] (Parse.cover_default "ab") in
  let copy = Network.copy net in
  let added = Network.add_logic net ~fanins:[| a |] (Parse.cover_default "a'") in
  Network.remove_node net spare;
  Network.set_function net (Builder.node net "sum") ~fanins:[| c |]
    (Parse.cover_default "a");
  unknown_node copy added;
  Alcotest.(check bool) "removal not seen by the copy" true
    (Network.mem copy spare);
  Alcotest.(check int) "rewire not seen by the copy" 3
    (Array.length (Network.fanins copy (Builder.node copy "sum")));
  let grown =
    List.init 100 (fun _ ->
        Network.add_logic copy ~fanins:[| a |] (Parse.cover_default "a"))
  in
  List.iter (fun id -> if id <> added then unknown_node net id) grown;
  Network.check net;
  Network.check copy

(* ------------------------------------------------------------------ *)
(* Sweep / collapse / eliminate                                        *)
(* ------------------------------------------------------------------ *)

let test_sweep_constants () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ]
      ~nodes:[ ("z0", "0"); ("g", "a + z0 b"); ("f", "g b") ]
      ~outputs:[ "f" ]
  in
  let before = Network.copy net in
  let removed = Sweep.run net in
  Alcotest.(check bool) "swept something" true (removed > 0);
  Alcotest.(check bool) "function preserved" true (Equiv.equivalent net before);
  Alcotest.(check bool) "constant gone" true
    (Network.find_by_name net "z0" = None);
  Network.check net

let test_sweep_buffers () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ]
      ~nodes:[ ("p1", "a"); ("q1", "b'"); ("f", "p1 q1 + p1'") ]
      ~outputs:[ "f" ]
  in
  let before = Network.copy net in
  ignore (Sweep.run net);
  Alcotest.(check bool) "function preserved" true (Equiv.equivalent net before);
  Alcotest.(check bool) "buffer inlined" true (Network.find_by_name net "p1" = None);
  Alcotest.(check bool) "inverter inlined" true (Network.find_by_name net "q1" = None);
  Network.check net

let test_collapse () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("g", "a + b"); ("f", "gc + g'a") ]
      ~outputs:[ "f" ]
  in
  let before = Network.copy net in
  let g = Builder.node net "g" in
  Alcotest.(check bool) "collapsed" true (Collapse.collapse_into_fanouts net g);
  Alcotest.(check bool) "function preserved" true (Equiv.equivalent net before);
  Alcotest.(check bool) "g gone" true (Network.find_by_name net "g" = None);
  Network.check net

let test_eliminate () =
  let net =
    Builder.of_spec
      ~inputs:[ "a"; "b"; "c"; "d" ]
      ~nodes:[ ("g", "ab"); ("f", "g + cd") ]
      ~outputs:[ "f" ]
  in
  let before = Network.copy net in
  let n = Collapse.eliminate ~threshold:0 net in
  Alcotest.(check bool) "eliminated the cheap node" true (n >= 1);
  Alcotest.(check bool) "function preserved" true (Equiv.equivalent net before);
  Network.check net

let test_eliminate_keeps_valuable () =
  (* g has two fanouts: collapsing duplicates ab, increasing literals, so
     eliminate 0 must keep it. *)
  let net =
    Builder.of_spec
      ~inputs:[ "a"; "b"; "c"; "d"; "e" ]
      ~nodes:[ ("g", "ab + cd"); ("f1", "ge"); ("f2", "gd + e") ]
      ~outputs:[ "f1"; "f2" ]
  in
  ignore (Collapse.eliminate ~threshold:0 net);
  Alcotest.(check bool) "shared node kept" true
    (Network.find_by_name net "g" <> None)

let test_collapse_value_and_substitute () =
  let net =
    Builder.of_spec
      ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("g", "ab"); ("f", "g + c") ]
      ~outputs:[ "f" ]
  in
  let g = Builder.node net "g" and f = Builder.node net "f" in
  (* Collapsing g into its single fanout saves the g->f wire: value < 0. *)
  (match Collapse.value net g with
  | Some v -> Alcotest.(check bool) "negative value" true (v <= 0)
  | None -> Alcotest.fail "value should be defined");
  Alcotest.(check (option int)) "outputs have no value" None
    (Collapse.value net f);
  let before = Network.copy net in
  Alcotest.(check bool) "collapse_into_fanouts" true
    (Collapse.collapse_into_fanouts net g);
  Alcotest.(check bool) "function preserved" true (Equiv.equivalent net before);
  Alcotest.(check bool) "f no longer references g" false
    (Array.exists (Int.equal g) (Network.fanins net f));
  Alcotest.(check bool) "g removed" false (Network.mem net g)

let test_blif_file_io () =
  let net = adder_net () in
  let path = Filename.temp_file "rarsub" ".blif" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Blif.to_string net));
  let reread, _ = Blif.read_file_dc path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true (Equiv.equivalent net reread)

(* ------------------------------------------------------------------ *)
(* Literal counts                                                      *)
(* ------------------------------------------------------------------ *)

let test_lit_count () =
  let net =
    Builder.of_spec
      ~inputs:[ "a"; "b"; "c"; "d"; "e" ]
      ~nodes:[ ("f", "ac + ad + bc + bd + e") ]
      ~outputs:[ "f" ]
  in
  let f = Builder.node net "f" in
  Alcotest.(check int) "flat" 9 (Lit_count.flat net);
  Alcotest.(check int) "factored" 5 (Lit_count.node_factored net f);
  Alcotest.(check int) "network factored" 5 (Lit_count.factored net)

(* ------------------------------------------------------------------ *)
(* BLIF                                                                *)
(* ------------------------------------------------------------------ *)

let test_blif_roundtrip () =
  let net = adder_net () in
  let text = Blif.to_string net in
  let reread = Blif.parse text in
  Alcotest.(check bool) "roundtrip equivalence" true (Equiv.equivalent net reread)

let test_blif_parse_features () =
  let text =
    {|# full adder with continuation and off-set table
.model adder
.inputs a b \
 c
.outputs s cout
.names a b c s
110 0
000 0
101 0
011 0
.names a b c cout
11- 1
1-1 1
-11 1
.end|}
  in
  let net = Blif.parse text in
  let reference =
    Builder.of_spec
      ~inputs:[ "a"; "b"; "c" ]
      ~nodes:
        [
          ("s", "ab'c' + a'bc' + a'b'c + abc");
          ("cout", "ab + ac + bc");
        ]
      ~outputs:[ "s"; "cout" ]
  in
  Alcotest.(check bool) "off-set rows complemented" true
    (Equiv.equivalent net reference)

let test_blif_rejects () =
  Alcotest.(check bool) "latch rejected" true
    (match Blif.parse ".model x\n.latch a b\n.end" with
    | exception Blif.Parse_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "undefined output rejected" true
    (match Blif.parse ".model x\n.inputs a\n.outputs zz\n.end" with
    | exception Blif.Parse_error _ -> true
    | _ -> false)

let test_blif_continuations () =
  let expect_error tag ~line text =
    match Blif.parse text with
    | _ -> Alcotest.failf "%s: accepted" tag
    | exception Blif.Parse_error e ->
      Alcotest.(check int) (tag ^ ": physical line") line e.line
  in
  (* Dangling [\] on the last line: error at the backslash's own
     physical line, with and without a final newline. *)
  expect_error "dangling at EOF" ~line:4
    ".model x\n.inputs a\n.outputs f\n.names a \\";
  expect_error "dangling at EOF + newline" ~line:4
    ".model x\n.inputs a\n.outputs f\n.names a \\\n";
  (* A blank or comment-only line cannot sit inside a continuation. *)
  expect_error "blank inside continuation" ~line:3
    ".model x\n.inputs a \\\n\n b\n.outputs f\n.names a b f\n11 1\n.end";
  expect_error "comment-only inside continuation" ~line:3
    ".model x\n.inputs a \\\n# gap\n b\n.outputs f\n.names a b f\n11 1\n.end";
  (* CRLF input: the [\r] is trimmed before the backslash is looked
     for, so continuations join as on Unix line endings. *)
  let crlf =
    String.concat "\r\n"
      [
        ".model adder";
        ".inputs a b \\";
        " c";
        ".outputs s";
        ".names a b c s";
        "110 0";
        "000 0";
        "101 0";
        "011 0";
        ".end";
        "";
      ]
  in
  let reference =
    Builder.of_spec
      ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("s", "ab'c' + a'bc' + a'b'c + abc") ]
      ~outputs:[ "s" ]
  in
  Alcotest.(check bool) "CRLF continuation parses" true
    (Equiv.equivalent (Blif.parse crlf) reference);
  (* A dangling [\] hidden behind a [\r] at EOF is still dangling. *)
  expect_error "CRLF dangling at EOF" ~line:4
    ".model x\r\n.inputs a\r\n.outputs f\r\n.names a \\\r\n"

(* ------------------------------------------------------------------ *)
(* Simulation and equivalence                                          *)
(* ------------------------------------------------------------------ *)

let test_exhaustive_patterns () =
  let net = mux_net () in
  let inputs = Simulate.exhaustive_inputs net in
  let s = Builder.node net "s" in
  (* Input 0 must alternate every assignment. *)
  Alcotest.(check int64) "alternating pattern"
    0xAAAAAAAAAAAAAAAAL (inputs s).(0)

let test_equiv_detects_difference () =
  let net1 = mux_net () in
  let net2 =
    Builder.of_spec
      ~inputs:[ "s"; "a"; "b" ]
      ~nodes:[ ("f", "sa + s'b'") ]
      ~outputs:[ "f" ]
  in
  (match Equiv.exhaustive net1 net2 with
  | Equiv.Counterexample { output; assignment = cex } ->
    (* The counterexample must actually distinguish the two networks,
       and must name the output it distinguishes them on. *)
    Alcotest.(check string) "differing output named" "f" output;
    let assign net =
      let by_name = Hashtbl.create 4 in
      List.iter (fun (n, v) -> Hashtbl.replace by_name n v) cex;
      fun id -> Hashtbl.find by_name (Network.name net id)
    in
    let v1 = Network.eval net1 (assign net1) (Builder.node net1 "f") in
    let v2 = Network.eval net2 (assign net2) (Builder.node net2 "f") in
    Alcotest.(check bool) "counterexample distinguishes" true (v1 <> v2)
  | Equiv.Equivalent -> Alcotest.fail "should differ");
  Alcotest.(check bool) "bdd agrees" false (Robdd.Of_network.equivalent net1 net2)

let test_bdd_equiv () =
  let net1 = adder_net () in
  let net2 = Network.copy net1 in
  Alcotest.(check bool) "bdd equivalence" true
    (Robdd.Of_network.equivalent net1 net2)

(* ------------------------------------------------------------------ *)
(* BDD core                                                            *)
(* ------------------------------------------------------------------ *)

let test_bdd_basics () =
  let man = Robdd.Bdd.create () in
  let open Robdd.Bdd in
  let a = var man 0 and b = var man 1 in
  Alcotest.(check bool) "a∧a' = 0" true
    (is_false man (band man a (not_ man a)));
  Alcotest.(check bool) "a∨a' = 1" true
    (equal (bor man a (not_ man a)) (btrue man));
  Alcotest.(check bool) "xor self-inverse" true
    (equal (bxor man (bxor man a b) b) a);
  Alcotest.(check bool) "demorgan" true
    (equal (not_ man (band man a b)) (bor man (not_ man a) (not_ man b)))

let test_bdd_constrain () =
  let man = Robdd.Bdd.create () in
  let open Robdd.Bdd in
  let a = var man 0 and b = var man 1 and c = var man 2 in
  let f = bor man (band man a b) c in
  let care = band man a b in
  let g = constrain man f care in
  (* The defining property: f ∧ c = (f ↓ c) ∧ c. *)
  Alcotest.(check bool) "gcf identity" true
    (equal (band man f care) (band man g care));
  (* Under care = ab, f is identically 1. *)
  Alcotest.(check bool) "constrained to 1" true (equal g (btrue man))

(* ------------------------------------------------------------------ *)
(* Properties on random networks                                       *)
(* ------------------------------------------------------------------ *)

let gen_net =
  QCheck2.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* n_nodes = int_range 3 12 in
    return (Generator.random ~seed ~n_inputs:5 ~n_nodes ~n_outputs:2 ()))

let print_net = Network.to_string

let prop_sweep_preserves =
  QCheck2.Test.make ~name:"sweep preserves function" ~count:100 ~print:print_net
    gen_net (fun net ->
      let before = Network.copy net in
      ignore (Sweep.run net);
      Network.check net;
      Equiv.equivalent before net)

let prop_eliminate_preserves =
  QCheck2.Test.make ~name:"eliminate preserves function" ~count:60
    ~print:print_net gen_net (fun net ->
      let before = Network.copy net in
      ignore (Collapse.eliminate ~threshold:0 net);
      Network.check net;
      Equiv.equivalent before net)

let prop_blif_roundtrip =
  QCheck2.Test.make ~name:"BLIF round-trip is equivalence-preserving"
    ~count:100 ~print:print_net gen_net (fun net ->
      let reread = Blif.parse (Blif.to_string net) in
      Equiv.equivalent net reread)

let prop_sim_matches_bdd =
  QCheck2.Test.make ~name:"exhaustive simulation agrees with BDDs" ~count:60
    ~print:print_net gen_net (fun net ->
      let copy = Network.copy net in
      Equiv.equivalent net copy = Robdd.Of_network.equivalent net copy
      && Robdd.Of_network.equivalent net copy)

let prop_factored_leq_flat =
  QCheck2.Test.make ~name:"factored count never exceeds flat count" ~count:100
    ~print:print_net gen_net (fun net ->
      Lit_count.factored net <= Lit_count.flat net)


(* ------------------------------------------------------------------ *)
(* Structural queries against frozen copies                            *)
(* ------------------------------------------------------------------ *)

(* The implementations the id-indexed node store replaced, kept here as
   the reference the properties below compare against. [normalise] also
   has the later fix that drops fanins merging leaves unnamed. *)
module Frozen = struct
  let depends_on net n m =
    Network.Node_set.mem m (Network.transitive_fanin net [ n ])

  let topological net =
    let color = Hashtbl.create 16 in
    let order = ref [] in
    let rec visit id =
      match Hashtbl.find_opt color id with
      | Some `Done -> ()
      | Some `Active -> raise (Network.Cyclic (Printf.sprintf "node %d on a cycle" id))
      | None ->
        Hashtbl.replace color id `Active;
        Array.iter visit (Network.fanins net id);
        Hashtbl.replace color id `Done;
        order := id :: !order
    in
    List.iter visit (List.sort Int.compare (Network.node_ids net));
    List.rev !order

  let normalise ~fanins ~cover =
    let support = Cover.support cover in
    let kept = ref [] and mapping = Hashtbl.create 8 in
    List.iter
      (fun v ->
        let target = fanins.(v) in
        let slot =
          match List.find_opt (fun (_, n) -> n = target) !kept with
          | Some (slot, _) -> slot
          | None ->
            let slot = List.length !kept in
            kept := (slot, target) :: !kept;
            slot
        in
        Hashtbl.replace mapping v slot)
      support;
    let fanins = Array.of_list (List.map snd (List.rev !kept)) in
    let cover = Cover.rename_vars (fun v -> Hashtbl.find mapping v) cover in
    (* Then keep only the fanins the merged cover still names: merging
       duplicates can drop every cube that named one. *)
    let named = Cover.support cover in
    let position v =
      let rec go i = function
        | [] -> assert false
        | w :: rest -> if w = v then i else go (i + 1) rest
      in
      go 0 named
    in
    ( Array.of_list (List.map (fun v -> fanins.(v)) named),
      Cover.rename_vars position cover )

  (* The cycle guard's verdict: it ran over the normalised fanins, in
     order, and named the first one whose transitive fanin holds [id]. *)
  let cycle_error net id ~fanins cover =
    let fanins, _ = normalise ~fanins ~cover in
    Array.to_list fanins
    |> List.find_opt (fun f ->
           f = id || Network.Node_set.mem id (Network.transitive_fanin net [ f ]))
    |> Option.map (fun f ->
           Network.Cyclic (Printf.sprintf "fanin %d depends on node %d" f id))
end

let fail fmt = Printf.ksprintf failwith fmt

(* [order] lists exactly TFO(seeds), every node after its fanins there. *)
let check_cone_order net seeds order =
  let tfo = Network.transitive_fanout net seeds in
  if not (Network.Node_set.equal tfo (Network.Node_set.of_list order)
          && List.length order = Network.Node_set.cardinal tfo)
  then fail "cone order of %s is not the TFO"
      (String.concat "," (List.map string_of_int seeds));
  let position = Hashtbl.create 16 in
  List.iteri (fun i id -> Hashtbl.replace position id i) order;
  List.iteri
    (fun i id ->
      Array.iter
        (fun f ->
          match Hashtbl.find_opt position f with
          | Some j when j >= i -> fail "fanin %d listed after %d" f id
          | _ -> ())
        (Network.fanins net id))
    order

let check_traversals net =
  Network.check net;
  let ids = List.sort Int.compare (Network.node_ids net) in
  if Network.topological net <> Frozen.topological net then
    fail "topological order moved";
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          if Network.depends_on net n m <> Frozen.depends_on net n m then
            fail "depends_on %d %d" n m)
        ids;
      check_cone_order net [ n ] (Network.fanout_cone_order net [ n ]))
    ids;
  if List.length ids >= 2 then begin
    let seeds = [ List.nth ids (List.length ids - 1); List.hd ids ] in
    check_cone_order net seeds (Network.fanout_cone_order net seeds)
  end

let prop_traversals_match_frozen =
  QCheck2.Test.make
    ~name:"depends_on, topological and cone order match frozen traversals"
    ~count:60 ~print:string_of_int Net_mutations.gen_seed (fun seed ->
      let rng, net = Net_mutations.initial seed in
      check_traversals net;
      Net_mutations.mutate rng net ~steps:25 ~after_step:check_traversals;
      true)

(* [find_input] answers every name as [find_by_name] then [is_input]
   did: node names, a name no node carries, after each mutation, and
   through copies, overwrites, added inputs and removed unused ones. *)
let prop_find_input_matches_scan =
  QCheck2.Test.make ~name:"find_input matches find_by_name and is_input"
    ~count:100 ~print:string_of_int Net_mutations.gen_seed (fun seed ->
      let rng, net = Net_mutations.initial seed in
      let check net =
        List.iter
          (fun name ->
            let expected =
              match Network.find_by_name net name with
              | Some id when Network.is_input net id -> Some id
              | _ -> None
            in
            if Network.find_input net name <> expected then
              fail "find_input %s" name)
          ("ghost" :: List.map (Network.name net) (Network.node_ids net))
      in
      let inputs_step net =
        check net;
        match Rar_util.Rng.int rng 4 with
        | 0 -> ignore (Network.add_input net (Network.fresh_name net "pi"))
        | 1 -> (
          let unused =
            List.filter
              (fun id ->
                Network.fanout_count net id = 0 && not (Network.is_output net id))
              (Network.inputs net)
          in
          match unused with
          | [] -> ()
          | l -> Network.remove_node net (Rar_util.Rng.pick rng l))
        | _ -> ()
      in
      check net;
      Net_mutations.mutate rng net ~steps:30 ~after_step:inputs_step;
      check net;
      true)

(* Every rewire of the mutation sequence is checked against the old
   guard before it runs: [Cyclic] with the same message exactly when
   the old guard raised, and a rejected rewire leaves the network
   untouched. *)
let prop_cycle_guard_matches_frozen =
  QCheck2.Test.make ~name:"set_function raises Cyclic exactly when the old guard did"
    ~count:100 ~print:string_of_int Net_mutations.gen_seed (fun seed ->
      let set_function net id ~fanins cover =
        let expected = Frozen.cycle_error net id ~fanins cover in
        let before = Network.revision net in
        match (Network.set_function net id ~fanins cover, expected) with
        | (), None -> ()
        | (), Some _ -> fail "rewire of %d accepted, old guard rejected it" id
        | exception (Network.Cyclic _ as e) ->
          if Some e <> expected then fail "rewire of %d: %s" id (Printexc.to_string e);
          if Network.revision net <> before then fail "rejected rewire mutated"
      in
      let rng, net = Net_mutations.initial seed in
      Net_mutations.mutate ~set_function rng net ~steps:40
        ~after_step:Network.check;
      true)

(* [add_logic] and [set_function] normalise exactly like the general
   remap, whether or not the identity fast path applies (the cover
   generator names every variable most of the time, and fanins are
   drawn with replacement, so both paths run often). *)
let prop_normalise_matches_frozen =
  QCheck2.Test.make ~name:"normalise fast path matches the general remap"
    ~count:100 ~print:string_of_int Net_mutations.gen_seed (fun seed ->
      let rng = Rar_util.Rng.create seed in
      let net = Network.create () in
      let inputs =
        Array.init 6 (fun i -> Network.add_input net (Printf.sprintf "i%d" i))
      in
      let same id (fanins, cover) =
        Network.fanins net id = fanins
        && Cover.compare (Network.cover net id) cover = 0
      in
      List.for_all
        (fun _ ->
          let k = Rar_util.Rng.int rng 6 in
          let draw () =
            Array.init k (fun _ -> inputs.(Rar_util.Rng.int rng 6))
          in
          let fanins = draw () in
          let cover = Net_mutations.random_cover rng k in
          let id = Network.add_logic net ~fanins cover in
          let added = same id (Frozen.normalise ~fanins ~cover) in
          let fanins = draw () in
          let cover = Net_mutations.random_cover rng k in
          Network.set_function net id ~fanins cover;
          added && same id (Frozen.normalise ~fanins ~cover))
        (List.init 20 Fun.id))

(* ------------------------------------------------------------------ *)
(* BDD laws on random covers                                           *)
(* ------------------------------------------------------------------ *)

let nvars_bdd = 5

(* A cover's BDD, cube by cube; cover variable [i] is BDD variable [i]. *)
let bdd_of_cover man cover =
  let open Robdd.Bdd in
  List.fold_left
    (fun acc cube ->
      bor man acc
        (List.fold_left
           (fun acc lit ->
             let v = Literal.var lit in
             band man acc
               (if Literal.is_pos lit then var man v else nvar man v))
           (btrue man) (Cube.literals cube)))
    (bfalse man) (Cover.cubes cover)

let gen_bdd_cover =
  QCheck2.Gen.(
    let* cubes =
      list_size (int_range 0 6)
        (list_size (int_range 1 3)
           (let* v = int_range 0 (nvars_bdd - 1) in
            let* phase = bool in
            return (Literal.make v phase)))
    in
    return (Cover.of_cubes (List.filter_map Cube.of_literals cubes)))

let prop_bdd_eval_matches_cover =
  QCheck2.Test.make ~name:"BDD of a cover evaluates like the cover"
    ~count:300 ~print:Cover.to_string gen_bdd_cover (fun f ->
      let man = Robdd.Bdd.create () in
      let bdd = bdd_of_cover man f in
      let ok = ref true in
      for bits = 0 to (1 lsl nvars_bdd) - 1 do
        let assign v = bits land (1 lsl v) <> 0 in
        if Cover.eval assign f <> Robdd.Bdd.eval man bdd assign then ok := false
      done;
      !ok)

let prop_bdd_constrain_identity =
  QCheck2.Test.make ~name:"generalized cofactor identity f∧c = (f↓c)∧c"
    ~count:300
    ~print:(fun (f, c) -> Cover.to_string f ^ " / " ^ Cover.to_string c)
    QCheck2.Gen.(pair gen_bdd_cover gen_bdd_cover)
    (fun (f, c) ->
      let man = Robdd.Bdd.create () in
      let fb = bdd_of_cover man f in
      let cb = bdd_of_cover man c in
      QCheck2.assume (not (Robdd.Bdd.is_false man cb));
      let g = Robdd.Bdd.constrain man fb cb in
      Robdd.Bdd.equal (Robdd.Bdd.band man fb cb) (Robdd.Bdd.band man g cb))

let prop_bdd_shannon =
  QCheck2.Test.make ~name:"Shannon expansion law" ~count:200
    ~print:Cover.to_string gen_bdd_cover (fun f ->
      let man = Robdd.Bdd.create () in
      let fb = bdd_of_cover man f in
      (* f = x0·f|x0=1 ∨ x0'·f|x0=0, the cofactors being the generalized
         ones by a literal. *)
      let lo = Robdd.Bdd.constrain man fb (Robdd.Bdd.nvar man 0) in
      let hi = Robdd.Bdd.constrain man fb (Robdd.Bdd.var man 0) in
      Robdd.Bdd.equal fb
        (Robdd.Bdd.bor man
           (Robdd.Bdd.band man (Robdd.Bdd.var man 0) hi)
           (Robdd.Bdd.band man (Robdd.Bdd.nvar man 0) lo)))

(* Inside an attempt, after every step (nested attempts included), the
   gain read on the changed nodes equals the difference of the totals
   since the attempt opened. *)
let prop_attempt_gain =
  QCheck2.Test.make ~name:"attempt_gain equals the difference of totals"
    ~count:100 ~print:string_of_int Net_mutations.gen_seed (fun seed ->
      let rng, net = Net_mutations.initial seed in
      let ok = ref true in
      for _ = 1 to 4 do
        let opened = Lit_count.factored net in
        let agrees net =
          ok :=
            !ok && Lit_count.attempt_gain net = opened - Lit_count.factored net
        in
        ignore
          (Network.attempt net (fun () ->
               agrees net;
               Net_mutations.mutate rng net ~steps:6 ~after_step:agrees;
               if Rar_util.Rng.bool rng then Some () else None))
      done;
      !ok)

(* The state a rolled-back attempt must restore. *)
let state net =
  ( Network.to_string net,
    Network.node_ids net,
    Network.id_limit net,
    List.map (fun id -> Network.fanouts net id) (Network.node_ids net),
    Network.inputs net,
    Network.outputs net )

(* A rolled-back attempt of random steps leaves the network as it was:
   text, ids, allocator, fanouts and port order, with every invariant;
   only the revision has risen. *)
let prop_rollback_restores =
  QCheck2.Test.make ~name:"a rolled-back attempt leaves no trace" ~count:100
    ~print:string_of_int Net_mutations.gen_seed (fun seed ->
      let rng, net = Net_mutations.initial seed in
      for _ = 1 to 4 do
        let before = state net and revision = Network.revision net in
        ignore
          (Network.attempt net (fun () ->
               Net_mutations.mutate rng net ~steps:(1 + Rar_util.Rng.int rng 8);
               None));
        Network.check net;
        if state net <> before then fail "rollback left a trace";
        if Network.revision net <= revision then
          fail "revision did not rise on rollback";
        Net_mutations.mutate rng net ~steps:3
      done;
      true)

(* Observers hear nothing while an attempt is open, nothing of one that
   rolls back, and a committed one's mutations in order: those a plain
   run of the same steps on an equal network delivers. *)
let prop_observers_hear_commits =
  QCheck2.Test.make ~name:"observers hear only committed attempts"
    ~count:100 ~print:string_of_int Net_mutations.gen_seed (fun seed ->
      let listen net =
        let heard = ref [] in
        ignore (Network.on_mutation net (fun m -> heard := m :: !heard));
        heard
      in
      let rng, net = Net_mutations.initial seed in
      let plain_rng, plain = Net_mutations.initial seed in
      let heard = listen net and plain_heard = listen plain in
      let steps = 1 + Rar_util.Rng.int rng 8 in
      ignore (Rar_util.Rng.int plain_rng 8);
      let keep = Rar_util.Rng.bool rng in
      ignore (Rar_util.Rng.bool plain_rng);
      let kept =
        Network.attempt net (fun () ->
            Net_mutations.mutate rng net ~steps ~after_step:(fun _ ->
                if !heard <> [] then fail "heard inside an attempt");
            if keep then Some () else None)
      in
      Net_mutations.mutate plain_rng plain ~steps;
      if kept = Some () then begin
        if !heard <> !plain_heard then fail "heard other mutations";
        if Network.to_string net <> Network.to_string plain then
          fail "committed network differs"
      end
      else if !heard <> [] then fail "heard a rolled-back attempt";
      true)

(* The declared node order: [node_ids] is strictly descending, a copy
   and a rolled-back attempt keep it, [node_count] counts it, and [logic_ids] is
   it without the inputs. *)
let check_order net =
  let ids = Network.node_ids net in
  let rec descending = function
    | a :: (b :: _ as rest) -> a > b && descending rest
    | [ _ ] | [] -> true
  in
  if not (descending ids) then fail "node_ids not strictly descending";
  if Network.node_ids (Network.copy net) <> ids then
    fail "a copy reorders node_ids";
  ignore
    (Network.attempt net (fun () ->
         ignore (Network.add_logic net ~fanins:[||] Cover.one);
         List.iter
           (fun id ->
             if
               Network.fanout_count net id = 0
               && not (Network.is_output net id)
             then Network.remove_node net id)
           (Network.logic_ids net);
         None));
  if Network.node_ids net <> ids then
    fail "a rolled-back attempt reorders node_ids";
  if Network.node_count net <> List.length ids then
    fail "node_count %d for %d ids" (Network.node_count net) (List.length ids);
  if
    Network.logic_ids net
    <> List.filter (fun id -> not (Network.is_input net id)) ids
  then fail "logic_ids is not node_ids without the inputs"

let test_order_on_suite () =
  let eliminated =
    List.fold_left
      (fun acc row ->
        let net = Bench_suite.Suite.build row in
        check_order net;
        let n = Collapse.eliminate net in
        check_order net;
        acc + n)
      0 Bench_suite.Suite.rows
  in
  Alcotest.(check bool) "eliminate removed nodes" true (eliminated > 0)

let prop_order_under_mutation =
  QCheck2.Test.make ~name:"node order descending and kept by copies"
    ~count:100 ~print:string_of_int Net_mutations.gen_seed (fun seed ->
      let rng, net = Net_mutations.initial seed in
      check_order net;
      Net_mutations.mutate rng net ~steps:30 ~after_step:check_order;
      true)

(* The eliminate loop before the worklist, kept as the reference: every
   round re-values every logic node with [Collapse.value]. *)
let frozen_eliminate ~threshold net =
  let eliminated = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let best =
      List.fold_left
        (fun best id ->
          match Collapse.value net id with
          | Some v when v <= threshold -> (
            match best with
            | Some (_, bv) when bv <= v -> best
            | _ -> Some (id, v))
          | Some _ | None -> best)
        None (Network.logic_ids net)
    in
    match best with
    | Some (id, _) when Collapse.collapse_into_fanouts net id -> incr eliminated
    | Some _ | None -> continue_ := false
  done;
  !eliminated

(* The ids [run] removes from [net], in order: a collapse is the only
   removal either eliminate loop makes. *)
let removals net run =
  let removed = ref [] in
  let observer =
    Network.on_mutation net (function
      | Network.Node_removed id -> removed := id :: !removed
      | Network.Node_added _ | Network.Function_changed _ -> ())
  in
  let n = run net in
  Network.remove_observer net observer;
  (n, List.rev !removed)

(* Both loops on copies of [net]: the same count, the same collapsed
   ids in the same order, the same network text and the same id
   limit. *)
let eliminate_matches_frozen ~threshold net =
  let worklist = Network.copy net and frozen = Network.copy net in
  let n, ids = removals worklist (Collapse.eliminate ~threshold) in
  let n', ids' = removals frozen (frozen_eliminate ~threshold) in
  if n <> n' then fail "eliminated %d, frozen loop %d" n n';
  if ids <> ids' then
    fail "collapsed [%s], frozen loop [%s]"
      (String.concat ";" (List.map string_of_int ids))
      (String.concat ";" (List.map string_of_int ids'));
  if Network.to_string worklist <> Network.to_string frozen then
    fail "networks differ after eliminating %d" n;
  if Network.id_limit worklist <> Network.id_limit frozen then
    fail "id limits differ";
  n

let prop_eliminate_matches_frozen =
  QCheck2.Test.make ~name:"worklist eliminate matches full loop"
    ~count:80 ~print:string_of_int Net_mutations.gen_seed (fun seed ->
      let rng, net = Net_mutations.initial seed in
      Net_mutations.mutate rng net ~steps:10;
      List.iter
        (fun threshold -> ignore (eliminate_matches_frozen ~threshold net))
        [ -1; 0; 3 ];
      Net_mutations.mutate rng net ~steps:15;
      ignore (eliminate_matches_frozen ~threshold:0 net);
      true)

let test_eliminate_matches_frozen_planted () =
  let profile =
    {
      Generator.inputs = 10;
      noise_nodes = 12;
      algebraic_plants = 3;
      boolean_plants = 3;
      gdc_plants = 2;
      outputs = 6;
    }
  in
  let total = ref 0 in
  let check ~thresholds net =
    List.iter
      (fun threshold ->
        total := !total + eliminate_matches_frozen ~threshold net)
      thresholds
  in
  for seed = 1 to 6 do
    check ~thresholds:[ -1; 0; 2 ] (Generator.planted ~seed profile)
  done;
  (* The profiles a daemon serves, at fresh seeds. *)
  List.iter
    (fun name ->
      match Bench_suite.Suite.find name with
      | Some { Bench_suite.Suite.source = Synthetic profile; _ } ->
        for seed = 1 to 3 do
          check ~thresholds:[ -1; 0; 3 ] (Generator.planted ~seed profile)
        done
      | Some _ | None -> fail "no planted profile %s" name)
    [ "9sym"; "b9"; "c8"; "f51m"; "alu2"; "frg1"; "term1"; "ttt2" ];
  List.iter
    (fun row -> check ~thresholds:[ 0 ] (Bench_suite.Suite.build row))
    Bench_suite.Suite.quick_rows;
  Alcotest.(check bool) "some nodes eliminated" true (!total > 0)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sweep_preserves;
      prop_eliminate_preserves;
      prop_eliminate_matches_frozen;
      prop_blif_roundtrip;
      prop_sim_matches_bdd;
      prop_factored_leq_flat;
      prop_bdd_eval_matches_cover;
      prop_bdd_constrain_identity;
      prop_bdd_shannon;
      prop_traversals_match_frozen;
      prop_find_input_matches_scan;
      prop_order_under_mutation;
      prop_cycle_guard_matches_frozen;
      prop_normalise_matches_frozen;
      prop_attempt_gain;
      prop_rollback_restores;
      prop_observers_hear_commits;
    ]

let () =
  Alcotest.run "network"
    [
      ( "structure",
        [
          Alcotest.test_case "builder basics" `Quick test_builder_basics;
          Alcotest.test_case "evaluation" `Quick test_eval;
          Alcotest.test_case "fanout tracking" `Quick test_fanout_tracking;
          Alcotest.test_case "cycle guard" `Quick test_set_function_cycle_guard;
          Alcotest.test_case "duplicate fanin merge" `Quick test_duplicate_fanin_merge;
          Alcotest.test_case "merge drops an unnamed fanin" `Quick
            test_merge_drops_unnamed_fanin;
          Alcotest.test_case "topological order" `Quick test_topological;
          Alcotest.test_case "attempt keeps or rolls back" `Quick
            test_attempt_keeps_or_rolls_back;
          Alcotest.test_case "node store edge ids" `Quick test_node_store_edges;
          Alcotest.test_case "copy isolated" `Quick test_copy_isolated;
          Alcotest.test_case "node order on suite circuits" `Quick
            test_order_on_suite;
        ] );
      ( "transforms",
        [
          Alcotest.test_case "sweep constants" `Quick test_sweep_constants;
          Alcotest.test_case "sweep buffers" `Quick test_sweep_buffers;
          Alcotest.test_case "collapse" `Quick test_collapse;
          Alcotest.test_case "eliminate" `Quick test_eliminate;
          Alcotest.test_case "eliminate keeps valuable" `Quick
            test_eliminate_keeps_valuable;
          Alcotest.test_case "worklist eliminate on planted nets" `Quick
            test_eliminate_matches_frozen_planted;
          Alcotest.test_case "literal counts" `Quick test_lit_count;
          Alcotest.test_case "collapse value + substitute" `Quick
            test_collapse_value_and_substitute;
        ] );
      ( "blif",
        [
          Alcotest.test_case "roundtrip" `Quick test_blif_roundtrip;
          Alcotest.test_case "parse features" `Quick test_blif_parse_features;
          Alcotest.test_case "rejects unsupported" `Quick test_blif_rejects;
          Alcotest.test_case "strict continuations" `Quick
            test_blif_continuations;
          Alcotest.test_case "file io" `Quick test_blif_file_io;
        ] );
      ( "sim-equiv",
        [
          Alcotest.test_case "exhaustive patterns" `Quick test_exhaustive_patterns;
          Alcotest.test_case "difference detection" `Quick test_equiv_detects_difference;
          Alcotest.test_case "bdd equivalence" `Quick test_bdd_equiv;
        ] );
      ( "bdd",
        [
          Alcotest.test_case "basics" `Quick test_bdd_basics;
          Alcotest.test_case "constrain" `Quick test_bdd_constrain;
        ] );
      ("properties", qcheck_cases);
    ]
