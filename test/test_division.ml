(* Tests for Boolean division: the cover-level API and the network-level
   RAR-based algorithm. *)

open Twolevel
module Network = Logic_network.Network
module Builder = Logic_network.Builder
module Lit_count = Logic_network.Lit_count
module Lit_floor = Logic_network.Lit_floor
module Equiv = Logic_sim.Equiv
module Division = Booldiv.Division
module Basic_division = Booldiv.Basic_division
module Lift = Logic_network.Lift
module Generator = Bench_suite.Generator

let cover = Parse.cover_default

(* The defining identity of [Division.basic_sop]:
   [quotient·d + remainder ≡ f] modulo [dc]. *)
let verify_sop ?(dc = Cover.zero) ~f ~d { Division.quotient; remainder } =
  let result = Cover.union (Cover.product quotient d) remainder in
  Cover.contains (Cover.union result dc) f
  && Cover.contains (Cover.union f dc) result

(* Some cube of [f_not] shares no minterm with any cube of [d]: the test
   [Division.pos_complements] runs before it complements [d]. *)
let has_disjoint_cube ~f_not ~d =
  List.exists
    (fun c -> List.for_all (fun k -> Cube.distance c k > 0) (Cover.cubes d))
    (Cover.cubes f_not)

(* ------------------------------------------------------------------ *)
(* Cover-level division                                                *)
(* ------------------------------------------------------------------ *)

let test_sop_xor_example () =
  (* xor = ab' + a'b, d = a + b: Boolean quotient is a' + b'; algebraic
     division finds nothing. *)
  let f = cover "ab' + a'b" and d = cover "a + b" in
  (match Division.basic_sop ~f ~d () with
  | None -> Alcotest.fail "division should succeed"
  | Some result ->
    Alcotest.(check bool) "identity holds" true
      (verify_sop ~f ~d result);
    Alcotest.(check bool) "quotient is a' + b'" true
      (Cover.equivalent result.quotient (cover "a' + b'"));
    Alcotest.(check bool) "no remainder" true (Cover.is_zero result.remainder));
  let q_alg = Algebraic.quotient f d in
  Alcotest.(check bool) "algebraic cannot divide" true (Cover.is_zero q_alg)

let test_sop_with_remainder () =
  (* f = ad + bd + a'b'c, d = a + b: q = d(the input var), r = a'b'c. *)
  let f = cover "ad + bd + a'b'c" and d_div = cover "a + b" in
  match Division.basic_sop ~f ~d:d_div () with
  | None -> Alcotest.fail "division should succeed"
  | Some result ->
    Alcotest.(check bool) "identity" true
      (verify_sop ~f ~d:d_div result);
    Alcotest.(check bool) "quotient is d" true
      (Cover.equivalent result.quotient (cover "d"));
    Alcotest.(check bool) "remainder" true
      (Cover.equal result.remainder (cover "a'b'c"))

let test_sop_no_division () =
  (* No cube of f is contained in a cube of d. *)
  Alcotest.(check bool) "quotient zero" true
    (Division.basic_sop ~f:(cover "ab") ~d:(cover "c + d") () = None)

let test_sop_with_dc () =
  (* f = ab, d = a + b. Without dc, dividing gives q ≡ ab (no gain);
     with dc = a'b' ∨ ... the quotient can grow. Here dc = ab' + a'b lets
     f expand inside d: q can become 1-literal-free: f = d (mod dc). *)
  let f = cover "ab" and d = cover "a + b" in
  let dc = cover "ab' + a'b" in
  match Division.basic_sop ~dc ~f ~d () with
  | None -> Alcotest.fail "division should succeed"
  | Some result ->
    Alcotest.(check bool) "identity mod dc" true
      (verify_sop ~dc ~f ~d result);
    Alcotest.(check bool) "dc shrinks quotient to 1" true
      (Cover.is_one result.quotient)

let test_pos_division () =
  (* f = (a+b)(c+d) as SOP; divide by d = c + d in POS form:
     f = (0 + (c+d)) · (a+b). *)
  let f = cover "ac + ad + bc + bd" and d = cover "c + d" in
  match Division.basic_pos ~f ~d () with
  | None -> Alcotest.fail "pos division should succeed"
  | Some result ->
    Alcotest.(check bool) "identity" true (Division.verify_pos ~f ~d result);
    Alcotest.(check bool) "factor is a + b" true
      (Cover.equivalent result.pos_remainder (cover "a + b"))

let test_pos_nontrivial_quotient () =
  (* f = (a + b + e)(c + a), d = b + e: f = (q + d)(r) with a in q. *)
  let f = Cover.product (cover "a + b + e") (cover "c + a") in
  let d = cover "b + e" in
  match Division.basic_pos ~f ~d () with
  | None -> Alcotest.fail "pos division should succeed"
  | Some result -> Alcotest.(check bool) "identity" true (Division.verify_pos ~f ~d result)

(* ------------------------------------------------------------------ *)
(* Lifted cubes                                                        *)
(* ------------------------------------------------------------------ *)

let test_lifted_cube_containment () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("d", "a + b"); ("f", "ab' + a'b") ]
      ~outputs:[ "f"; "d" ]
  in
  let f = Builder.node net "f" and d = Builder.node net "d" in
  let fc0 = List.nth (Lift.cubes net f) 0 in
  let dc0 = List.nth (Lift.cubes net d) 0 in
  let dc1 = List.nth (Lift.cubes net d) 1 in
  (* Each f cube is contained in exactly one of d's single-literal cubes. *)
  Alcotest.(check bool) "containment in one divisor cube" true
    (Cube.contained_by fc0 dc0 <> Cube.contained_by fc0 dc1)

(* ------------------------------------------------------------------ *)
(* Network-level basic division                                        *)
(* ------------------------------------------------------------------ *)

let xor_net () =
  Builder.of_spec ~inputs:[ "a"; "b" ]
    ~nodes:[ ("d", "a + b"); ("f", "ab' + a'b") ]
    ~outputs:[ "f"; "d" ]

let test_basic_division_xor () =
  let net = xor_net () in
  let before = Network.copy net in
  let f = Builder.node net "f" and d = Builder.node net "d" in
  Alcotest.(check bool) "applicable" true
    (Basic_division.f1_indices net ~f ~d <> []);
  (match Basic_division.try_divide net ~f ~d with
  | None -> Alcotest.fail "division should commit"
  | Some outcome ->
    Alcotest.(check bool) "positive gain" true (outcome.literal_gain > 0);
    Alcotest.(check bool) "wires were removed" true (outcome.wires_removed > 0));
  Network.check net;
  Alcotest.(check bool) "equivalent" true (Equiv.equivalent before net);
  (* f must now use d as a fanin. *)
  let uses_d = Array.exists (Int.equal d) (Network.fanins net f) in
  Alcotest.(check bool) "f uses d" true uses_d;
  (* f = d(a' + b'): 3 factored literals, down from 4. *)
  Alcotest.(check int) "final literal count" 3 (Lit_count.node_factored net f)

let test_basic_division_paper_shape () =
  (* The introduction's shape: 6 literals initially; algebraic
     substitution reaches 5; Boolean reaches 4.
     f = ad + bd + a'b'c = (a+b)d + (a+b)'c, divisor D = a + b. *)
  let net =
    Builder.of_spec
      ~inputs:[ "a"; "b"; "c"; "d" ]
      ~nodes:[ ("D", "a + b"); ("f", "ad + bd + a'b'c") ]
      ~outputs:[ "f"; "D" ]
  in
  let before = Network.copy net in
  let f = Builder.node net "f" and d = Builder.node net "D" in
  Alcotest.(check int) "6 literals initially" 6 (Lit_count.node_factored net f);
  (* Algebraic resubstitution would give D·d + a'b'c = 5 literals. *)
  let q_alg = Algebraic.quotient (cover "ad + bd + a'b'c") (cover "a + b") in
  Alcotest.(check bool) "algebraic quotient is d" true
    (Cover.equivalent q_alg (cover "d"));
  (match Basic_division.try_divide net ~f ~d with
  | None -> Alcotest.fail "division should commit"
  | Some _ -> ());
  Alcotest.(check int) "positive phase reaches 5 (like algebraic)" 5
    (Lit_count.node_factored net f);
  (* The remaining a'b' factor is D': dividing by the complement finds it. *)
  (match Basic_division.try_divide ~phase:false net ~f ~d with
  | None -> Alcotest.fail "complement division should commit"
  | Some _ -> ());
  Network.check net;
  Alcotest.(check bool) "equivalent" true (Equiv.equivalent before net);
  Alcotest.(check int) "Boolean substitution reaches 4" 4
    (Lit_count.node_factored net f)

let test_basic_division_not_applicable () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("d", "c"); ("f", "ab") ]
      ~outputs:[ "f"; "d" ]
  in
  let f = Builder.node net "f" and d = Builder.node net "d" in
  Alcotest.(check bool) "not applicable" false
    (Basic_division.f1_indices net ~f ~d <> []);
  Alcotest.(check bool) "divide returns None" true
    (Basic_division.divide net ~f ~d = None)

let test_basic_division_cycle_guard () =
  (* d depends on f: division must refuse. *)
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ]
      ~nodes:[ ("f", "ab' + a'b"); ("d", "f + a") ]
      ~outputs:[ "d" ]
  in
  let f = Builder.node net "f" and d = Builder.node net "d" in
  Alcotest.(check bool) "refused" false
    (Basic_division.f1_indices net ~f ~d <> [])

let test_basic_division_no_gain_reverts () =
  (* Dividing ab by d = a + b: the quotient cannot shrink below ab, so the
     rewrite costs a literal and must be rolled back. *)
  let net =
    Builder.of_spec ~inputs:[ "a"; "b" ]
      ~nodes:[ ("d", "a + b"); ("f", "ab") ]
      ~outputs:[ "f"; "d" ]
  in
  let f = Builder.node net "f" and d = Builder.node net "d" in
  let before_cover = Network.cover net f in
  Alcotest.(check bool) "no commit" true
    (Basic_division.try_divide net ~f ~d = None);
  Alcotest.(check bool) "cover untouched" true
    (Cover.equal before_cover (Network.cover net f));
  Network.check net

let test_basic_division_gdc () =
  (* The xor division must also work with global implications enabled. *)
  let net = xor_net () in
  let before = Network.copy net in
  let f = Builder.node net "f" and d = Builder.node net "d" in
  (match Basic_division.try_divide ~gdc:true ~learn_depth:1 net ~f ~d with
  | None -> Alcotest.fail "gdc division should commit"
  | Some outcome ->
    Alcotest.(check bool) "positive gain" true (outcome.literal_gain > 0));
  Network.check net;
  Alcotest.(check bool) "equivalent" true (Equiv.equivalent before net);
  (* A GDC plant: the literal a inside f's quotient cube is provably
     redundant only through the chain x = y·e, y = a·b — two node levels
     away, beyond the local region. *)
  let gdc_net () =
    Generator.planted ~seed:2
      {
        inputs = 10;
        noise_nodes = 0;
        algebraic_plants = 0;
        boolean_plants = 0;
        gdc_plants = 1;
        outputs = 1;
      }
  in
  let local = gdc_net () in
  let global = gdc_net () in
  ignore (Booldiv.Substitute.run ~config:Booldiv.Substitute.extended_config local);
  ignore
    (Booldiv.Substitute.run ~config:Booldiv.Substitute.extended_gdc_config global);
  Alcotest.(check bool) "gdc config strictly stronger on the gdc plant" true
    (Lit_count.factored global < Lit_count.factored local);
  Alcotest.(check bool) "gdc result equivalent" true
    (Equiv.equivalent global (gdc_net ()))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let nvars = 5

let gen_cover =
  QCheck2.Gen.(
    let* cubes =
      list_size (int_range 1 5)
        (list_size (int_range 1 3)
           (let* v = int_range 0 (nvars - 1) in
            let* phase = bool in
            return (Literal.make v phase)))
    in
    return (Cover.of_cubes (List.filter_map Cube.of_literals cubes)))

let same_function f g =
  let ok = ref true in
  for bits = 0 to (1 lsl nvars) - 1 do
    let assign v = bits land (1 lsl v) <> 0 in
    if Cover.eval assign f <> Cover.eval assign g then ok := false
  done;
  !ok

let prop_sop_identity =
  QCheck2.Test.make ~name:"cover division identity f = qd + r" ~count:300
    ~print:(fun (f, d) -> Cover.to_string f ^ " / " ^ Cover.to_string d)
    QCheck2.Gen.(pair gen_cover gen_cover)
    (fun (f, d) ->
      match Division.basic_sop ~f ~d () with
      | None -> true
      | Some { quotient; remainder } ->
        same_function f (Cover.union (Cover.product quotient d) remainder))

let prop_pos_identity =
  QCheck2.Test.make ~name:"cover POS division identity f = (q + d)r"
    ~count:300
    ~print:(fun (f, d) -> Cover.to_string f ^ " / " ^ Cover.to_string d)
    QCheck2.Gen.(pair gen_cover gen_cover)
    (fun (f, d) ->
      match Division.basic_pos ~f ~d () with
      | None -> true
      | Some { pos_quotient; pos_remainder } ->
        same_function f
          (Cover.product (Cover.union pos_quotient d) pos_remainder))

(* The parent composition of [basic_pos]: plain complements, no
   pre-check, no memo. *)
let reference_complement c =
  Option.map Minimize.simplify (Complement.cover_limited ~limit:1024 c)

let prop_pos_precheck_exact =
  QCheck2.Test.make ~name:"POS pre-check rejects only quotient-free pairs"
    ~count:500
    ~print:(fun (f, d) -> Cover.to_string f ^ " / " ^ Cover.to_string d)
    QCheck2.Gen.(pair gen_cover gen_cover)
    (fun (f, d) ->
      Division.pos_complements ~f ~d () <> None
      ||
      match (reference_complement f, reference_complement d) with
      | Some f_not, Some d_not ->
        Division.basic_sop ~f:f_not ~d:d_not () = None
      | _ -> true)

(* The support test is necessary for a disjoint cube both with the
   minimised complement and with the raw Shannon complement that
   [Minimize.simplify] keeps when its own result is longer. *)
let prop_support_test_exact =
  QCheck2.Test.make
    ~name:"POS support test rejects only pairs without a disjoint cube"
    ~count:500
    ~print:(fun (f, d) -> Cover.to_string f ^ " / " ^ Cover.to_string d)
    QCheck2.Gen.(pair gen_cover gen_cover)
    (fun (f, d) ->
      Division.meets_support ~f ~d
      || List.for_all
           (fun f_not -> not (has_disjoint_cube ~f_not ~d))
           (List.filter_map Fun.id
              [
                Minimize.complement ~limit:1024 f;
                Complement.cover_limited ~limit:1024 f;
              ]))

(* The test reads the cover's support: [ab + ab'] names [b] without
   depending on it, and its raw complement [a'b + a'b'] has a cube
   disjoint from [d = b]. *)
let test_support_test_reads_cover () =
  let f = cover "ab + ab'" and d = cover "b" in
  Alcotest.(check bool) "the raw complement has a disjoint cube" true
    (has_disjoint_cube
       ~f_not:(Option.get (Complement.cover_limited ~limit:1024 f))
       ~d);
  Alcotest.(check bool) "b passes" true (Division.meets_support ~f ~d);
  Alcotest.(check bool) "c is rejected" false
    (Division.meets_support ~f ~d:(cover "c + bc"))

let prop_pos_matches_reference =
  QCheck2.Test.make ~name:"POS division equals the unmemoised composition"
    ~count:300
    ~print:(fun (f, d) -> Cover.to_string f ^ " / " ^ Cover.to_string d)
    QCheck2.Gen.(pair gen_cover gen_cover)
    (fun (f, d) ->
      let ( let* ) = Option.bind in
      let reference =
        let* f_not = reference_complement f in
        let* d_not = reference_complement d in
        let* { Division.quotient; remainder } =
          Division.basic_sop ~f:f_not ~d:d_not ()
        in
        let* q = reference_complement quotient in
        let* r = reference_complement remainder in
        Some (q, r)
      in
      match (Division.basic_pos ~f ~d (), reference) with
      | None, None -> true
      | Some { pos_quotient; pos_remainder }, Some (q, r) ->
        Cover.equal pos_quotient q && Cover.equal pos_remainder r
      | Some _, None | None, Some _ -> false)

let gen_planted =
  QCheck2.Gen.(
    let* seed = int_range 1 100_000 in
    return
      (Generator.planted ~seed
         {
           inputs = 6;
           noise_nodes = 3;
           algebraic_plants = 1;
        gdc_plants = 0;
           boolean_plants = 1;
           outputs = 3;
         }))

let try_all_divisions ?gdc net =
  let nodes = Network.logic_ids net in
  List.iter
    (fun f ->
      List.iter
        (fun d ->
          if Network.mem net f && Network.mem net d && f <> d then
            ignore (Basic_division.try_divide ?gdc net ~f ~d))
        nodes)
    nodes

let prop_network_division_preserves =
  QCheck2.Test.make ~name:"network division preserves function" ~count:40
    ~print:Network.to_string gen_planted (fun net ->
      let before = Network.copy net in
      try_all_divisions net;
      Network.check net;
      Equiv.equivalent before net)

let prop_network_division_gdc_preserves =
  QCheck2.Test.make ~name:"network division (GDC) preserves function"
    ~count:25 ~print:Network.to_string gen_planted (fun net ->
      let before = Network.copy net in
      try_all_divisions ~gdc:true net;
      Network.check net;
      Equiv.equivalent before net)

let prop_division_never_grows =
  QCheck2.Test.make ~name:"committed divisions only reduce literals"
    ~count:40 ~print:Network.to_string gen_planted (fun net ->
      let before = Lit_count.factored net in
      try_all_divisions net;
      Lit_count.factored net <= before)

(* ------------------------------------------------------------------ *)
(* Extended division and the substitution driver                       *)
(* ------------------------------------------------------------------ *)

(* D = ab + a'b' + c and f = (ab + a'b')(x + y) flattened: basic division
   by the whole of D cannot shrink anything (the c cube never conflicts),
   but extended division finds the core divisor {ab, a'b'}, decomposes
   D = core + c, and substitutes the core. *)
let ext_net () =
  Builder.of_spec
    ~inputs:[ "a"; "b"; "c"; "x"; "y" ]
    ~nodes:
      [
        ("D", "ab + a'b' + c");
        ("f", "abx + a'b'x + aby + a'b'y");
      ]
    ~outputs:[ "f"; "D" ]

let test_votes_and_filter () =
  let net = ext_net () in
  let f = Builder.node net "f" and d = Builder.node net "D" in
  let entries = Booldiv.Vote.collect net ~f ~pool:[ d ] in
  (* 12 literal wires in f. *)
  Alcotest.(check int) "one entry per literal wire" 12 (List.length entries);
  let valid = Booldiv.Vote.valid_entries entries in
  (* The 8 wires on a/b phases are valid; the 4 x/y wires vote for a cube
     that does not contain theirs and are filtered out — the paper's
     Table I(a) -> I(b) step. *)
  Alcotest.(check int) "validity filter" 8 (List.length valid);
  List.iter
    (fun e ->
      Alcotest.(check int) "each valid wire votes for both core cubes" 2
        (List.length e.Booldiv.Vote.candidates))
    valid;
  (* Rendering shouldn't raise and mentions the divisor. *)
  let rendered = Booldiv.Vote.table_to_string net entries in
  Alcotest.(check bool) "table mentions D" true
    (String.length rendered > 0)

let test_clique_selection () =
  (* Candidate sets: {1,2} {1,2} {1} {3}: best clique is the first two
     wires with core {1,2}. *)
  let candidates = [| [ 1; 2 ]; [ 1; 2 ]; [ 1 ]; [ 3 ] |] in
  let serves _ core = core <> [] in
  match Booldiv.Clique.best_core ~candidates ~serves with
  | None -> Alcotest.fail "expected a choice"
  | Some { members; core } ->
    Alcotest.(check int) "three wires served" 3 (List.length members);
    Alcotest.(check (list int)) "core is the intersection" [ 1 ] core

let test_clique_exact_small () =
  (* Triangle plus isolated vertex. *)
  let adjacent a b = a <> b && a <= 2 && b <= 2 in
  let cliques = Booldiv.Clique.maximal_cliques ~n:4 ~adjacent in
  let sizes = List.sort Int.compare (List.map List.length cliques) in
  Alcotest.(check (list int)) "triangle and singleton" [ 1; 3 ] sizes

let test_extended_division_example () =
  let net = ext_net () in
  let before = Network.copy net in
  let f = Builder.node net "f" and d = Builder.node net "D" in
  (* Basic division by the full divisor must not find a profitable
     rewrite. *)
  Alcotest.(check bool) "basic division finds nothing" true
    (Basic_division.try_divide net ~f ~d = None);
  let total_before = Lit_count.factored net in
  (match Booldiv.Extended_division.try_run net ~f ~pool:[ d ] with
  | None -> Alcotest.fail "extended division should commit"
  | Some outcome ->
    Alcotest.(check bool) "divisor decomposed" true
      outcome.decomposed_divisor;
    Alcotest.(check int) "core has two cubes" 2 outcome.core_cubes;
    Alcotest.(check bool) "positive gain" true (outcome.literal_gain > 0));
  Network.check net;
  Alcotest.(check bool) "equivalent" true (Equiv.equivalent before net);
  Alcotest.(check bool) "literals reduced" true
    (Lit_count.factored net < total_before)


let test_extended_multi_source () =
  (* The paper's end-of-Section-IV generalisation: the core divisor's
     cubes come from two different nodes, each of which contains the whole
     core and gets decomposed around the shared new node. *)
  let fresh () =
    Builder.of_spec
      ~inputs:[ "a"; "b"; "c"; "e"; "x"; "y" ]
      ~nodes:
        [
          ("d1", "ab + a'b' + c");
          ("d2", "ab + a'b' + e");
          ("f", "abx + a'b'x + aby + a'b'y");
        ]
      ~outputs:[ "f"; "d1"; "d2" ]
  in
  let net = fresh () in
  let f = Builder.node net "f" in
  let d1 = Builder.node net "d1" and d2 = Builder.node net "d2" in
  let before_total = Lit_count.factored net in
  (match Booldiv.Extended_division.try_run net ~f ~pool:[ d1; d2 ] with
  | None -> Alcotest.fail "multi-source extended division should commit"
  | Some outcome ->
    Alcotest.(check int) "two source nodes" 2 outcome.core_sources;
    Alcotest.(check bool) "sources decomposed around the core" true
      outcome.decomposed_divisor;
    Alcotest.(check bool) "substantial gain" true (outcome.literal_gain >= 4));
  Network.check net;
  Alcotest.(check bool) "equivalent" true (Equiv.equivalent net (fresh ()));
  Alcotest.(check bool) "total literals reduced" true
    (Lit_count.factored net < before_total)


let test_pos_substitution () =
  let net =
    Builder.of_spec
      ~inputs:[ "a"; "b"; "c"; "d" ]
      ~nodes:[ ("D", "c + d"); ("f", "ac + ad + bc + bd") ]
      ~outputs:[ "f"; "D" ]
  in
  let before = Network.copy net in
  let f = Builder.node net "f" and d = Builder.node net "D" in
  let lits_before = Lit_count.node_factored net f in
  Alcotest.(check bool) "pos substitution commits" true
    (Booldiv.Substitute.substitute_pos net ~f ~d);
  Network.check net;
  Alcotest.(check bool) "equivalent" true (Equiv.equivalent before net);
  Alcotest.(check bool) "literals reduced" true
    (Lit_count.node_factored net f < lits_before);
  Alcotest.(check bool) "f uses D" true
    (Array.exists (Int.equal d) (Network.fanins net f))

let run_config config net =
  let before = Network.copy net in
  let stats = Booldiv.Substitute.run ~config net in
  Network.check net;
  Alcotest.(check bool) "equivalent after substitution pass" true
    (Equiv.equivalent before net);
  Alcotest.(check bool) "never grows" true
    (stats.literals_after <= stats.literals_before);
  stats

let test_driver_configs () =
  let fresh () =
    Generator.planted ~seed:42
      {
        inputs = 7;
        noise_nodes = 4;
        algebraic_plants = 2;
        gdc_plants = 0;
        boolean_plants = 2;
        outputs = 5;
      }
  in
  let basic = run_config Booldiv.Substitute.basic_config (fresh ()) in
  let ext = run_config Booldiv.Substitute.extended_config (fresh ()) in
  let gdc = run_config Booldiv.Substitute.extended_gdc_config (fresh ()) in
  Alcotest.(check bool) "basic finds substitutions" true
    (basic.basic_substitutions + basic.pos_substitutions > 0);
  Alcotest.(check bool) "ext at least as good as basic" true
    (ext.literals_after <= basic.literals_after);
  Alcotest.(check bool) "gdc at least as good as ext" true
    (gdc.literals_after <= ext.literals_after)

let test_degraded_run_preserves_equivalence () =
  (* A minuscule per-unit fault budget forces divisions to exhaust
     mid-scan. The pass must absorb every exhaustion (counters record
     them), still terminate, and the degraded result must stay
     functionally identical — proved canonically with BDDs, not just
     simulation. *)
  let net =
    Generator.planted ~seed:7
      {
        inputs = 7;
        noise_nodes = 4;
        algebraic_plants = 2;
        gdc_plants = 1;
        boolean_plants = 2;
        outputs = 5;
      }
  in
  let before = Network.copy net in
  let counters = Rar_util.Counters.create () in
  let stats =
    Booldiv.Substitute.run ~config:Booldiv.Substitute.extended_config
      ~fault_fuel:3 ~counters net
  in
  Network.check net;
  Alcotest.(check bool) "degradations recorded" true
    (Atomic.get counters.Rar_util.Counters.degradations > 0);
  Alcotest.(check bool) "never grows even degraded" true
    (stats.literals_after <= stats.literals_before);
  Alcotest.(check bool) "BDD-equivalent after degraded run" true
    (Robdd.Of_network.equivalent before net);
  (* Same circuit, ample budget: must match the unbudgeted run exactly
     (budgets that never exhaust are invisible). *)
  let ample = Network.copy before and plain = Network.copy before in
  ignore
    (Booldiv.Substitute.run ~config:Booldiv.Substitute.extended_config
       ~fault_fuel:10_000_000 ample);
  ignore
    (Booldiv.Substitute.run ~config:Booldiv.Substitute.extended_config plain);
  Alcotest.(check string) "ample budget is invisible"
    (Network.to_string plain) (Network.to_string ample)

let prop_substitution_preserves =
  QCheck2.Test.make ~name:"substitution driver preserves function" ~count:25
    ~print:Network.to_string gen_planted (fun net ->
      let before = Network.copy net in
      ignore (Booldiv.Substitute.run net);
      Network.check net;
      Equiv.equivalent before net)

let prop_extended_preserves =
  QCheck2.Test.make ~name:"extended division preserves function" ~count:20
    ~print:Network.to_string gen_planted (fun net ->
      let before = Network.copy net in
      let nodes = Network.logic_ids net in
      List.iter
        (fun f ->
          if Network.mem net f then
            ignore
              (Booldiv.Extended_division.try_run net ~f
                 ~pool:(List.filter (fun d -> d <> f) nodes)))
        nodes;
      Network.check net;
      Equiv.equivalent before net)

(* The exact pre-checks in front of division work: each may only reject
   attempts the full computation would reject too. The ext pre-check
   against the vote table's validity filter, and the negative-phase SOS
   pre-check against the SOS list of the complement it skips. *)
let test_prechecks_exact () =
  let rejected_ext = ref 0 and voted = ref 0 and rejected_neg = ref 0 in
  for seed = 1 to 30 do
    let net =
      Generator.planted ~seed
        {
          inputs = 6;
          noise_nodes = 3;
          algebraic_plants = 1;
          gdc_plants = 0;
          boolean_plants = 1;
          outputs = 3;
        }
    in
    let nodes = Network.logic_ids net in
    List.iter
      (fun f ->
        let others = List.filter (fun d -> d <> f) nodes in
        List.iter
          (fun pool ->
            let valid =
              Booldiv.Vote.valid_entries (Booldiv.Vote.collect net ~f ~pool)
            in
            if valid <> [] then incr voted;
            if not (Booldiv.Extended_division.may_vote net ~f ~pool) then begin
              incr rejected_ext;
              Alcotest.(check int) "rejected pool has no valid vote" 0
                (List.length valid)
            end)
          (others :: List.map (fun d -> [ d ]) others);
        List.iter
          (fun d ->
            let reference =
              (not (Network.depends_on net d f))
              &&
              match
                Complement.cover_limited ~limit:128 (Network.cover net d)
              with
              | None -> false
              | Some d_not ->
                let ks = List.map (Lift.cube net d) (Cover.cubes d_not) in
                List.exists
                  (fun c -> List.exists (Cube.contained_by c) ks)
                  (Lift.cubes net f)
            in
            let f_cubes = Lift.cubes net f and d_cubes = Lift.cubes net d in
            if
              not
                (List.exists
                   (fun c ->
                     List.for_all (fun k -> Cube.distance c k > 0) d_cubes)
                   f_cubes)
            then incr rejected_neg;
            Alcotest.(check bool) "negative-phase applicability" reference
              (Basic_division.f1_indices ~phase:false net ~f ~d <> []))
          others)
      nodes
  done;
  Alcotest.(check bool) "both pre-checks rejected something" true
    (!rejected_ext > 0 && !rejected_neg > 0);
  Alcotest.(check bool) "some pools voted" true (!voted > 0)

(* ------------------------------------------------------------------ *)
(* Literal floors against frozen copies                                *)
(* ------------------------------------------------------------------ *)

(* Extended division as it was before the literal floors, every
   attempt running to its gain test, and POS substitution as it was
   before the truth-table tests: the support floor before any
   complement and the remainder floor after the first two. *)
module Oracle = struct
  module Vote = Booldiv.Vote
  module Clique = Booldiv.Clique

  (* The try-on-a-copy commit of the time, from public operations:
     [dst] takes the nodes, covers and id allocator of [src], a copy of
     [dst] that gained, rewired and lost logic nodes. Every logic node
     is emptied first, so no rewire can close a cycle, and ids [src]
     allocated and removed again are allocated and removed here too. *)
  let overwrite dst src =
    let empty id = Network.set_function dst id ~fanins:[||] Cover.zero in
    List.iter empty (Network.logic_ids dst);
    for id = Network.id_limit dst to Network.id_limit src - 1 do
      let name = if Network.mem src id then Network.name src id else "gap" in
      ignore (Network.add_logic dst ~name ~fanins:[||] Cover.zero)
    done;
    List.iter
      (fun id ->
        if Network.mem src id then
          Network.set_function dst id ~fanins:(Network.fanins src id)
            (Network.cover src id)
        else Network.remove_node dst id)
      (Network.logic_ids dst)

  let factored_delta before after =
    Lit_count.factored before - Lit_count.factored after
  (* The lifted cubes of the time: packed signal-literal sets in which
     node id [n] owns codes (2n, 2n+1), positive phase on the odd code. *)
  module Net_cube = struct
    let of_cube_index net id i =
      let fanins = Network.fanins net id in
      Cube_kernel.of_code_set
        (Cube.fold_literals
           (fun acc lit ->
             ((2 * fanins.(Literal.var lit))
             + if Literal.is_pos lit then 1 else 0)
             :: acc)
           [] (List.nth (Cover.cubes (Network.cover net id)) i))

    let contained_by c k = Cube_kernel.subset k c

    let signals t =
      List.rev
        (Cube_kernel.fold_codes
           (fun acc code -> (code lsr 1, code land 1 = 1) :: acc)
           [] t)

    let compare = Cube_kernel.compare

    let equal = Cube_kernel.equal
  end

  (* SOS sets and the vote pre-check as they were before they moved
     into [f]'s fanin slots: every cube lifted into node-id space. *)
  let sos_cube_indices net ~f ~d ~phase =
    let f_cubes = Lift.cubes net f in
    let may_divide =
      phase
      ||
      let d_cubes = Lift.cubes net d in
      List.exists
        (fun c -> List.for_all (fun k -> Cube.distance c k > 0) d_cubes)
        f_cubes
    in
    let divisor_cubes =
      if phase then Some (Cover.cubes (Network.cover net d))
      else
        Option.map Cover.cubes
          (Complement.cover_limited ~limit:128 (Network.cover net d))
    in
    match if may_divide then divisor_cubes else None with
    | None -> []
    | Some cubes ->
      let d_cubes = List.map (Lift.cube net d) cubes in
      List.concat
        (List.mapi
           (fun i c ->
             if List.exists (Cube.contained_by c) d_cubes then [ i ] else [])
           f_cubes)

  let f1_indices ?(phase = true) net ~f ~d =
    if
      f <> d
      && (not (Network.is_input net f))
      && (not (Network.is_input net d))
      && not (Network.depends_on net d f)
    then sos_cube_indices net ~f ~d ~phase
    else []

  let may_vote net ~f ~pool =
    let f_cubes = Lift.cubes net f in
    List.exists
      (fun m ->
        m <> f
        && (not (Network.is_input net m))
        && List.exists
             (fun k -> List.exists (fun c -> Cube.contained_by c k) f_cubes)
             (Lift.cubes net m))
      pool

  (* The basic work unit before each phase's SOS set was kept and the
     combined rewrite was gated on both sets: every division computed
     its own set, and the combined rewrite ran whenever the positive
     phase could divide. [gated] counts the runs the gate now skips,
     [combined] the combined rewrites that commit. *)
  let attempt_basic ~gated ~combined ~config ~counters ~sigs net ~f ~d =
    let module S = Booldiv.Substitute in
    let gdc = config.S.gdc and learn_depth = config.S.learn_depth in
    let dc = config.S.dc in
    let phase_possible phase =
      Logic_sim.Signature.phase_compatible sigs ~phase ~f ~d
    in
    let commit phase =
      phase_possible phase
      &&
      match
        Basic_division.try_divide ~phase ~gdc ~learn_depth ~counters ?dc
          ~f1:(f1_indices ~phase net ~f ~d) net ~f ~d
      with
      | Some _ -> true
      | None -> false
    in
    let commit_both () =
      phase_possible true && phase_possible false
      && f1_indices net ~f ~d <> []
      &&
      let () = if f1_indices ~phase:false net ~f ~d = [] then incr gated in
      let scratch = Network.copy net in
      let first =
        Basic_division.divide ~gdc ~learn_depth ~counters ?dc
          ~f1:(f1_indices scratch ~f ~d) scratch ~f ~d
      in
      let second =
        Basic_division.divide ~phase:false ~gdc ~learn_depth ~counters ?dc
          ~f1:(f1_indices ~phase:false scratch ~f ~d) scratch ~f ~d
      in
      if
        first <> None && second <> None
        && factored_delta net scratch > 0
      then begin
        overwrite net scratch;
        incr combined;
        true
      end
      else false
    in
    let direct = commit true in
    let complemented = if config.S.use_complement then commit false else false in
    if direct || complemented then true
    else if config.S.use_complement then commit_both ()
    else false

  let pos_cube_limit = 64

  (* The floors of the time. [pos_floor]: the variables of [f]'s
     functional support outside [d]'s fanins, plus one when the support
     meets them, and 0 when [d] is a fanin of [f] already. *)
  let pos_floor net ~f ~d =
    let f_fanins = Network.fanins net f and d_fanins = Network.fanins net d in
    if Array.mem d f_fanins then 0
    else begin
      let out = ref 0 and shared = ref false in
      List.iter
        (fun v ->
          if Array.mem f_fanins.(v) d_fanins then shared := true else incr out)
        (Lit_floor.functional_support (Network.cover net f));
      !out + if !shared then 1 else 0
    end

  (* [pos_rebuild_floor]: the literals [r_not] requires, plus one when
     [q_not] leaves [r_not]. *)
  let pos_rebuild_floor ~q_not ~r_not =
    Lit_floor.required_literals r_not
    + if Cover.contains r_not q_not then 0 else 1

  (* [Division.pos_complements] without the support test. *)
  let pos_complements ~f ~d =
    let ( let* ) = Option.bind in
    let complement = Minimize.complement ~limit:pos_cube_limit in
    let* f_not = complement f in
    if not (has_disjoint_cube ~f_not ~d) then None
    else
      let* d_not = complement d in
      let* { Division.quotient = q_not; remainder = r_not } =
        Division.basic_sop ~f:f_not ~d:d_not ()
      in
      Some (q_not, r_not)

  (* POS substitution with the support floor before the complements and
     the remainder floor after the first two. *)
  let substitute_pos ~counters net ~f ~d =
    if
      f = d
      || Network.is_input net f
      || Network.is_input net d
      || Network.depends_on net d f
    then false
    else begin
      let before_lits = Lit_count.node_factored net f in
      if pos_floor net ~f ~d >= before_lits then begin
        Rar_util.Counters.add counters.Rar_util.Counters.floor_rejects 1;
        false
      end
      else begin
        let f_fanins = Network.fanins net f in
        let d_fanins = Network.fanins net d in
        let slots = Hashtbl.create 16 and order = ref [] in
        let add x =
          if not (Hashtbl.mem slots x) then begin
            Hashtbl.add slots x (Hashtbl.length slots);
            order := x :: !order
          end
        in
        Array.iter add f_fanins;
        Array.iter add d_fanins;
        let combined = Array.of_list (List.rev !order) in
        let slot_of = Hashtbl.find slots in
        let d_lift =
          Cover.map_vars (fun v -> slot_of d_fanins.(v)) (Network.cover net d)
        in
        match
          Option.bind
            (pos_complements ~f:(Network.cover net f) ~d:d_lift)
            (fun (q_not, r_not) ->
              if
                (not (Array.mem d f_fanins))
                && pos_rebuild_floor ~q_not ~r_not >= before_lits
              then begin
                Rar_util.Counters.add counters.Rar_util.Counters.floor_rejects
                  1;
                None
              end
              else
                Division.pos_of_complements ~complement_limit:pos_cube_limit
                  (q_not, r_not))
        with
        | None -> false
        | Some { pos_quotient; pos_remainder } ->
          let d_slot = Array.length combined in
          let d_lit =
            Cover.of_cubes [ Cube.of_literals_exn [ Literal.pos d_slot ] ]
          in
          let rebuilt =
            Cover.product (Cover.union pos_quotient d_lit) pos_remainder
          in
          let fanins = Array.append combined [| d |] in
          Cover.cube_count rebuilt <= pos_cube_limit
          && Factor.count (snd (Network.normalise ~fanins ~cover:rebuilt))
             < before_lits
          &&
          match Network.set_function net f ~fanins rebuilt with
          | exception Network.Cyclic _ -> false
          | () -> true
      end
    end

  let distinct_sources core = List.sort_uniq Int.compare (List.map fst core)

  (* Expose the core divisor as a node of [net]; returns the node and
     whether an existing divisor node was decomposed into core + rest. *)
  let materialise_core net core =
    match distinct_sources core with
    | [ m ] when List.length core = Cover.cube_count (Network.cover net m) ->
      (* The whole node was chosen: plain basic division against m. *)
      (m, false)
    | [ m ] ->
      let m_fanins = Network.fanins net m in
      let m_cubes = Array.of_list (Cover.cubes (Network.cover net m)) in
      let selected = List.map snd core in
      let core_cover =
        Cover.of_cubes (List.map (fun j -> m_cubes.(j)) selected)
      in
      let g =
        Network.add_logic net
          ~name:(Network.fresh_name net (Network.name net m ^ "_core"))
          ~fanins:m_fanins core_cover
      in
      (* Decompose m = core + rest (the paper's divisor decomposition). *)
      let rest =
        List.filteri (fun j _ -> not (List.mem j selected))
          (Array.to_list m_cubes)
      in
      let slot = Array.length m_fanins in
      Network.set_function net m
        ~fanins:(Array.append m_fanins [| g |])
        (Cover.of_cubes (Cube.of_literals_exn [ Literal.pos slot ] :: rest));
      (g, true)
    | sources ->
      (* Cubes from several nodes: build a fresh node over the union of the
         referenced signals. *)
      let global_cubes =
        List.sort_uniq Net_cube.compare
          (List.map (fun (m, j) -> Net_cube.of_cube_index net m j) core)
      in
      let signals =
        List.sort_uniq Int.compare
          (List.concat_map
             (fun c -> List.map fst (Net_cube.signals c))
             global_cubes)
      in
      let fanins = Array.of_list signals in
      let slot_of =
        let tbl = Hashtbl.create 8 in
        Array.iteri (fun i id -> Hashtbl.replace tbl id i) fanins;
        Hashtbl.find tbl
      in
      let cover =
        Cover.of_cubes
          (List.map
             (fun c ->
               Cube.of_literals_exn
                 (List.map
                    (fun (id, phase) -> Literal.make (slot_of id) phase)
                    (Net_cube.signals c)))
             global_cubes)
      in
      let g = Network.add_logic net ~name:(Network.fresh_name net "core") ~fanins cover in
      (* Any source that contains the whole core as a subset of its own
         cubes can be decomposed around it too, so the new node is shared
         rather than duplicated logic. *)
      let decomposed = ref false in
      List.iter
        (fun m ->
          let m_cubes = Array.of_list (Cover.cubes (Network.cover net m)) in
          let m_globals =
            Array.mapi (fun j _ -> Net_cube.of_cube_index net m j) m_cubes
          in
          let inside c = Array.exists (Net_cube.equal c) m_globals in
          if List.for_all inside global_cubes then begin
            let rest =
              List.filteri
                (fun j _ ->
                  not (List.exists (Net_cube.equal m_globals.(j)) global_cubes))
                (Array.to_list m_cubes)
            in
            let m_fanins = Network.fanins net m in
            let slot = Array.length m_fanins in
            Network.set_function net m
              ~fanins:(Array.append m_fanins [| g |])
              (Cover.of_cubes (Cube.of_literals_exn [ Literal.pos slot ] :: rest));
            decomposed := true
          end)
        sources;
      (g, !decomposed)

  let try_run ?gdc ?learn_depth ?budget ?counters ?dc net ~f ~pool =
    if not (may_vote net ~f ~pool) then None
    else begin
      (* [dc] is name-based, so the view built against [net] stays valid on
         the scratch copy (copies preserve names). *)
      let scratch = Network.copy net in
      let entries =
        Vote.collect ?gdc ?learn_depth ?budget ?counters ?dc scratch ~f ~pool
      in
      let valid = Array.of_list (Vote.valid_entries entries) in
      if Array.length valid = 0 then None
      else begin
        let candidates = Array.map (fun e -> e.Vote.candidates) valid in
        let serves v core =
          let wire_cube =
            Net_cube.of_cube_index scratch f
              (Atpg.Fault.wire_cube valid.(v).Vote.wire)
          in
          List.exists
            (fun (m, j) ->
              Net_cube.contained_by wire_cube
                (Net_cube.of_cube_index scratch m j))
            core
        in
        match Clique.best_core ~candidates ~serves with
        | None -> None
        | Some { Clique.members; core } ->
          let core_node, decomposed = materialise_core scratch core in
          let divided =
            Basic_division.divide ?gdc ?learn_depth ?budget ?counters ?dc scratch
              ~f ~d:core_node
          in
          let cleanup_ok =
            match divided with
            | Some _ -> true
            | None ->
              (* Division refused after materialisation: reject the attempt. *)
              false
          in
          if not cleanup_ok then None
          else begin
            let gain = factored_delta net scratch in
            if gain > 0 then begin
              overwrite net scratch;
              Some
                {
                  Booldiv.Extended_division.core_cubes = List.length core;
                  core_sources = List.length (distinct_sources core);
                  expected_removals = List.length members;
                  decomposed_divisor = decomposed;
                  literal_gain = gain;
                }
            end
            else None
          end
      end
    end
end

(* A second workload for the extended-division floors: one input per
   signal, and the minimised complements of the lifted covers of [f] and
   the pool as nodes over them. Its covers are denser than the planted
   ones, so the floors meet other cube shapes there. *)
let complement_domain net ~f ~pool =
  let lifted id =
    let fanins = Network.fanins net id in
    Cover.map_vars (fun v -> fanins.(v)) (Network.cover net id)
  in
  let usable c = not (Cover.is_zero c || Cover.is_one c) in
  match Minimize.complement ~limit:64 (lifted f) with
  | Some f_not when usable f_not -> (
    let pool_not =
      List.filter_map
        (fun d ->
          match Minimize.complement ~limit:64 (lifted d) with
          | Some c when usable c -> Some c
          | Some _ | None -> None)
        pool
    in
    match pool_not with
    | [] -> None
    | _ ->
      let mini = Network.create () in
      let input = Hashtbl.create 16 in
      List.iter
        (fun s ->
          Hashtbl.replace input s (Network.add_input mini (Network.name net s)))
        (List.sort_uniq Int.compare
           (List.concat_map Cover.support (f_not :: pool_not)));
      let add name c =
        let support = Array.of_list (Cover.support c) in
        let slot v =
          Option.get (Array.find_index (Int.equal v) support)
        in
        let id =
          Network.add_logic mini ~name
            ~fanins:(Array.map (Hashtbl.find input) support)
            (Cover.map_vars slot c)
        in
        Network.add_output mini name id;
        id
      in
      let f_mini = add "f_not" f_not in
      let pool_mini =
        List.mapi (fun i c -> add (Printf.sprintf "d%d_not" i) c) pool_not
      in
      Some (mini, f_mini, pool_mini))
  | Some _ | None -> None

(* Networks to attempt divisions on: a mutated [Net_mutations] network,
   or a planted one where divisions commit more often. *)
let floor_network seed =
  if seed mod 2 = 0 then begin
    let rng, net = Net_mutations.initial seed in
    Net_mutations.mutate rng net ~steps:15;
    (rng, net)
  end
  else
    ( Rar_util.Rng.create seed,
      Generator.planted ~seed
        {
          inputs = 6;
          noise_nodes = 3;
          algebraic_plants = 1;
          gdc_plants = 0;
          boolean_plants = 1;
          outputs = 3;
        } )

(* Run [oracle] and [current] on two copies of [net]: the verdicts, the
   networks they leave and their id allocators must agree. *)
let same_attempt what ~oracle ~current net =
  let a = Network.copy net and b = Network.copy net in
  let va = oracle a and vb = current b in
  if va <> vb then Alcotest.failf "%s: verdicts differ" what;
  if Network.to_string a <> Network.to_string b then
    Alcotest.failf "%s: networks differ" what;
  if Network.id_limit a <> Network.id_limit b then
    Alcotest.failf "%s: id allocators differ" what;
  va

let test_floors_match_oracle () =
  let counters = Rar_util.Counters.create () in
  let pos_counters = Rar_util.Counters.create ()
  and oracle_counters = Rar_util.Counters.create () in
  let pos_commits = ref 0 and ext_commits = ref 0 in
  for seed = 1 to 120 do
    let rng, net = floor_network seed in
    let nodes = List.sort Int.compare (Network.logic_ids net) in
    List.iter
      (fun f ->
        let others = List.filter (fun d -> d <> f) nodes in
        List.iter
          (fun d ->
            if
              same_attempt "substitute_pos"
                ~oracle:(fun n ->
                  Oracle.substitute_pos ~counters:oracle_counters n ~f ~d)
                ~current:(fun n ->
                  Booldiv.Substitute.substitute_pos ~counters:pos_counters n
                    ~f ~d)
                net
            then incr pos_commits)
          nodes;
        let pool =
          List.filter (fun _ -> Rar_util.Rng.int rng 3 > 0) others
        in
        let ext net ~f ~pool =
          if
            same_attempt "try_run"
              ~oracle:(fun n -> Oracle.try_run n ~f ~pool)
              ~current:(fun n ->
                Booldiv.Extended_division.try_run ~counters n ~f ~pool)
              net
            <> None
          then incr ext_commits
        in
        ext net ~f ~pool;
        match complement_domain net ~f ~pool with
        | Some (mini, f_mini, pool_mini) -> ext mini ~f:f_mini ~pool:pool_mini
        | None -> ())
      nodes
  done;
  let rejects c = Atomic.get c.Rar_util.Counters.floor_rejects in
  Alcotest.(check bool) "floors rejected attempts" true (rejects counters > 0);
  (* Each truth-table test is at least as strong as the floor it
     replaced, and they reject more. *)
  Alcotest.(check bool) "the POS tests reject more than the old floors" true
    (rejects pos_counters > rejects oracle_counters);
  Alcotest.(check bool) "POS substitutions committed" true (!pos_commits > 0);
  Alcotest.(check bool) "extended divisions committed" true (!ext_commits > 0)

(* The cubes of [f] outside the SOS set of [d], and [d]'s literal in
   [f]'s cover when [d] is a fanin of [f] already: the remainder floor's
   arguments. *)
let remainder_floor net ~f ~d f1 =
  let absorber =
    Option.map Literal.pos (Array.find_index (Int.equal d) (Network.fanins net f))
  in
  Lit_floor.remainder ?absorber
    (List.filteri
       (fun i _ -> not (List.mem i f1))
       (Cover.cubes (Network.cover net f)))

(* With [d] already a fanin of [f], the quotient can shrink to the top
   cube, and the collapse's single-cube containment then absorbs every
   remainder cube that holds [d]: here ady and dxy vanish into d, and f
   falls from (a + x)(b + dy) to d + bx. Counting those cubes would put
   the floor at 5, the count of f itself, and reject this winning
   division. *)
let test_remainder_floor_skips_absorbed_cubes () =
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "x"; "y" ]
      ~nodes:[ ("d", "ab"); ("f", "ab + ady + bx + dxy") ]
      ~outputs:[ "f"; "d" ]
  in
  let f = Builder.node net "f" and d = Builder.node net "d" in
  let f1 = Basic_division.f1_indices net ~f ~d in
  Alcotest.(check int) "f before" 5 (Lit_count.node_factored net f);
  Alcotest.(check int) "floor" 2 (remainder_floor net ~f ~d f1);
  let gain =
    same_attempt "absorbed remainder"
      ~oracle:(fun n -> Oracle.try_run n ~f ~pool:[ d ])
      ~current:(fun n -> Booldiv.Extended_division.try_run n ~f ~pool:[ d ])
      net
  in
  Alcotest.(check (option int)) "extended division commits" (Some 2)
    (Option.map (fun o -> o.Booldiv.Extended_division.literal_gain) gain)

(* [f]'s fanins, then [d]'s that [f] lacks, and [d]'s cover lifted into
   those slots, as {!Booldiv.Substitute.substitute_pos} builds them. *)
let pos_lift net ~f ~d =
  let f_fanins = Network.fanins net f and d_fanins = Network.fanins net d in
  let combined =
    Array.append f_fanins
      (Array.of_list
         (List.filter
            (fun x -> not (Array.mem x f_fanins))
            (Array.to_list d_fanins)))
  in
  let slot x = Option.get (Array.find_index (Int.equal x) combined) in
  (combined, Cover.map_vars (fun v -> slot d_fanins.(v)) (Network.cover net d))

(* The cover a POS substitution of [f] by [d] would install, before
   normalisation, when the division yields one. *)
let pos_rebuilt net ~f ~d =
  let combined, d_lift = pos_lift net ~f ~d in
  Option.map
    (fun { Division.pos_quotient; pos_remainder } ->
      let y = Cube.of_literals_exn [ Literal.pos (Array.length combined) ] in
      ( Array.append combined [| d |],
        Cover.product
          (Cover.union pos_quotient (Cover.of_cubes [ y ]))
          pos_remainder ))
    (Division.basic_pos ~complement_limit:64 ~f:(Network.cover net f)
       ~d:d_lift ())

(* Each floor is at most the factored count the attempt really leaves on
   [f]: the POS floor against the rebuilt cover, the remainder floor
   against [f] after {!Basic_division.divide}. *)
let prop_floors_below_true_count =
  QCheck2.Test.make ~name:"literal floors never exceed the true count"
    ~count:60 ~print:string_of_int Net_mutations.gen_seed (fun seed ->
      let _, net = floor_network seed in
      let nodes = List.sort Int.compare (Network.logic_ids net) in
      let pos_ok f d =
        Network.depends_on net d f
        || Array.mem d (Network.fanins net f)
        ||
        match pos_rebuilt net ~f ~d with
        | None -> true
        | Some (fanins, rebuilt) ->
          Factor.count (snd (Network.normalise ~fanins ~cover:rebuilt))
          >= Lit_floor.pos ~f:(Network.cover net f)
               ~d:(snd (pos_lift net ~f ~d))
      in
      let remainder_ok f d =
        match Basic_division.f1_indices net ~f ~d with
        | [] -> true
        | f1 -> (
          let scratch = Network.copy net in
          match Basic_division.divide scratch ~f ~d with
          | None -> true
          | Some _ ->
            Lit_count.node_factored scratch f >= remainder_floor net ~f ~d f1)
      in
      List.for_all
        (fun f ->
          List.for_all
            (fun d -> f = d || (pos_ok f d && remainder_ok f d))
            nodes)
        nodes)

(* Functional support against brute-force cofactor comparison, on
   sparse covers of up to 13 variables (the truth-table path up to 10,
   the cofactor path above). *)
let prop_functional_support =
  let gen =
    QCheck2.Gen.(
      let* width = int_range 1 13 in
      let* cubes =
        list_size (int_range 0 5)
          (list_size (int_range 1 4)
             (let* v = int_range 0 (width - 1) in
              let* phase = bool in
              return (Literal.make (3 * v) phase)))
      in
      return (Cover.of_cubes (List.filter_map Cube.of_literals cubes)))
  in
  QCheck2.Test.make ~name:"functional support matches cofactor comparison"
    ~count:200 ~print:Cover.to_string gen (fun c ->
      let vars = Array.of_list (Cover.support c) in
      let n = Array.length vars in
      let depends v =
        let rec any bits =
          bits < 1 lsl n
          && (let value phase x =
                if x = v then phase
                else
                  let i = Option.get (Array.find_index (Int.equal x) vars) in
                  bits land (1 lsl i) <> 0
              in
              Cover.eval (value true) c <> Cover.eval (value false) c
              || any (bits + 1))
        in
        any 0
      in
      Lit_floor.functional_support c
      = List.filter depends (Array.to_list vars))

(* The SOS sets and the vote pre-check, decided in [f]'s fanin slots,
   against the lifted frozen ones: in both phases, for every ordered
   pair, on mutated and planted networks. *)
let test_slot_sos_matches_lifted () =
  let divided = ref 0 and complemented = ref 0 in
  for seed = 1 to 160 do
    let rng, net = floor_network seed in
    let nodes = List.sort Int.compare (Network.node_ids net) in
    List.iter
      (fun f ->
        List.iter
          (fun d ->
            List.iter
              (fun phase ->
                let slots = Basic_division.f1_indices ~phase net ~f ~d in
                if slots <> Oracle.f1_indices ~phase net ~f ~d then
                  Alcotest.failf "seed %d: SOS sets of %d / %d%s differ" seed f
                    d (if phase then "" else "'");
                if slots <> [] then
                  incr (if phase then divided else complemented))
              [ true; false ])
          nodes;
        let pool = List.filter (fun _ -> Rar_util.Rng.int rng 3 = 0) nodes in
        if
          Booldiv.Extended_division.may_vote net ~f ~pool
          <> Oracle.may_vote net ~f ~pool
        then Alcotest.failf "seed %d: may_vote on %d differs" seed f)
      (List.filter (fun id -> not (Network.is_input net id)) nodes)
  done;
  Alcotest.(check bool) "both phases found SOS cubes" true
    (!divided > 0 && !complemented > 0)

(* The basic work unit against the frozen one on two copies: the same
   verdict, network and id allocator, in the local and the global
   configurations. The combined rewrite's gate must have skipped runs,
   and some combined rewrites must commit (they are rare: the last five
   seeds are networks where one does). *)
let test_attempt_basic_matches_frozen () =
  let gated = ref 0 and combined = ref 0 and commits = ref 0 in
  let counters = Rar_util.Counters.create () in
  let with_sigs attempt net =
    let sigs = Logic_sim.Signature.create net in
    Fun.protect
      ~finally:(fun () -> Logic_sim.Signature.detach sigs)
      (fun () -> attempt ~sigs net)
  in
  let seeds = List.init 80 succ @ [ 169; 561; 727; 1784; 2228 ] in
  let attempt ~config net ~f ~d =
    same_attempt "attempt_basic"
      ~oracle:
        (with_sigs (fun ~sigs n ->
             Oracle.attempt_basic ~gated ~combined ~config ~counters ~sigs n
               ~f ~d))
      ~current:
        (with_sigs (fun ~sigs n ->
             Booldiv.Substitute.attempt_basic ~config ~counters ~sigs n ~f
               ~d))
      net
  in
  List.iter
    (fun seed ->
      let _, net = floor_network seed in
      let config =
        if seed mod 4 = 0 then Booldiv.Substitute.extended_gdc_config
        else Booldiv.Substitute.extended_config
      in
      let nodes = List.sort Int.compare (Network.logic_ids net) in
      List.iter
        (fun f ->
          List.iter
            (fun d -> if f <> d && attempt ~config net ~f ~d then incr commits)
            nodes)
        nodes)
    seeds;
  Alcotest.(check bool) "basic divisions committed" true (!commits > 0);
  Alcotest.(check bool) "the gate skipped combined rewrites" true
    (!gated > 0);
  Alcotest.(check bool) "combined rewrites committed" true (!combined > 0)

(* The combined-phase gate's lemma: after dividing [f] by [d], no cube
   of [f] lies inside a cube of [d'] unless one of the original [f]'s
   did. *)
let prop_combined_gate_exact =
  QCheck2.Test.make ~name:"combined rewrite needs a phase-false SOS cube"
    ~count:60 ~print:string_of_int Net_mutations.gen_seed (fun seed ->
      let _, net = floor_network seed in
      let nodes = List.sort Int.compare (Network.logic_ids net) in
      List.for_all
        (fun f ->
          List.for_all
            (fun d ->
              Basic_division.f1_indices net ~f ~d = []
              || Basic_division.f1_indices ~phase:false net ~f ~d <> []
              ||
              let scratch = Network.copy net in
              Basic_division.divide scratch ~f ~d = None
              || Basic_division.f1_indices ~phase:false scratch ~f ~d = [])
            nodes)
        nodes)

(* The complements of a POS substitution's factors and the cover it
   would store, when the division yields them and [d] is a new fanin of
   [f]. *)
let pos_parts net ~f ~d =
  if
    Array.mem d (Network.fanins net f) || Network.depends_on net d f || f = d
  then None
  else begin
    let combined, d_lift = pos_lift net ~f ~d in
    Option.bind
      (Division.pos_complements ~complement_limit:64 ~f:(Network.cover net f)
         ~d:d_lift ())
      (fun (q_not, r_not) ->
        Option.map
          (fun { Division.pos_quotient; pos_remainder } ->
            let y =
              Cube.of_literals_exn [ Literal.pos (Array.length combined) ]
            in
            let rebuilt =
              Cover.product
                (Cover.union pos_quotient (Cover.of_cubes [ y ]))
                pos_remainder
            in
            ( d_lift,
              q_not,
              r_not,
              Factor.count
                (snd
                   (Network.normalise
                      ~fanins:(Array.append combined [| d |])
                      ~cover:rebuilt)) ))
          (Division.pos_of_complements ~complement_limit:64 (q_not, r_not)))
  end

(* Without the divisor literal: [q_not ≤ r_not] makes the rebuild
   [(q + y)·r] equal [r = a'b'], whose count 2 the floor reaches. With
   [q_not = c] the rebuild [(c' + y)·a'b'] names [c'] in its [y = 0]
   slice as well as [y]: 4. With [q_not = a'b'] the slice [q·r] is 0
   and adds nothing: [y·a'b'], 3. *)
let test_pos_floor_without_divisor () =
  let q_not = cover "a" and r_not = cover "a + b" in
  Alcotest.(check int) "q_not inside r_not" 2
    (Lit_floor.pos_rebuild ~q_not ~r_not);
  Alcotest.(check int) "the y = 0 slice and the divisor literal count" 4
    (Lit_floor.pos_rebuild ~q_not:(cover "c") ~r_not);
  Alcotest.(check int) "an empty y = 0 slice adds nothing" 3
    (Lit_floor.pos_rebuild ~q_not:(cover "a'b'") ~r_not)

(* The region floor on hand-made covers. For [f = abc] and [d = ab]
   only [c]'s pairs stay on one side of [d], so the floor is 2, which
   the rebuild [y·c] reaches; counting the pairs that cross [d] would
   give 3. For [f = a + b] and [d = ab] every pair stays on one side,
   but the rebuild [a + b] ignores [y]: the floor is [|RL(f)| = 2], not
   3. *)
let test_pos_region_floor () =
  Alcotest.(check int) "pairs across d do not count" 2
    (Lit_floor.pos ~f:(cover "abc") ~d:(cover "ab"));
  Alcotest.(check int) "a rebuild may ignore y" 2
    (Lit_floor.pos ~f:(cover "a + b") ~d:(cover "ab"))

(* The POS floors are at most the count of the cover the substitution
   would store, and each reaches it on some pairs: a floor one higher
   would reject a division it must not. *)
let test_pos_remainder_floor () =
  let tight_region = ref 0 and tight_sliced = ref 0 and pairs = ref 0 in
  for seed = 1 to 200 do
    let _, net = floor_network seed in
    let nodes = List.sort Int.compare (Network.logic_ids net) in
    List.iter
      (fun f ->
        List.iter
          (fun d ->
            match pos_parts net ~f ~d with
            | None -> ()
            | Some (d_lift, q_not, r_not, count) ->
              incr pairs;
              let check what floor tight =
                if floor > count then
                  Alcotest.failf "seed %d, %d by %d: %s floor %d above count %d"
                    seed f d what floor count;
                if floor = count then incr tight
              in
              check "region"
                (Lit_floor.pos ~f:(Network.cover net f) ~d:d_lift)
                tight_region;
              check "sliced" (Lit_floor.pos_rebuild ~q_not ~r_not) tight_sliced)
          nodes)
      nodes
  done;
  Alcotest.(check bool) "pairs reached the floors" true (!pairs > 0);
  Alcotest.(check bool) "the region floor is tight somewhere" true
    (!tight_region > 0);
  Alcotest.(check bool) "the sliced floor is tight somewhere" true
    (!tight_sliced > 0)

(* The sliced floor is at most the count of every rebuild the division
   yields with [d] a new fanin. *)
let prop_sliced_floor_below_stored_count =
  QCheck2.Test.make ~name:"POS sliced floor never exceeds the stored count"
    ~count:60 ~print:string_of_int Net_mutations.gen_seed (fun seed ->
      let _, net = floor_network seed in
      let nodes = List.sort Int.compare (Network.logic_ids net) in
      List.for_all
        (fun f ->
          List.for_all
            (fun d ->
              match pos_parts net ~f ~d with
              | None -> true
              | Some (_, q_not, r_not, count) ->
                Lit_floor.pos_rebuild ~q_not ~r_not <= count)
            nodes)
        nodes)

(* Required literals against brute force: a literal is required iff some
   minterm has the function at 1 with it and at 0 without it, on sparse
   covers of up to 13 variables (the truth-table path up to 10, the
   cofactor path above). *)
let prop_required_literals =
  let gen =
    QCheck2.Gen.(
      let* width = int_range 1 13 in
      let* cubes =
        list_size (int_range 0 5)
          (list_size (int_range 1 4)
             (let* v = int_range 0 (width - 1) in
              let* phase = bool in
              return (Literal.make (3 * v) phase)))
      in
      return (Cover.of_cubes (List.filter_map Cube.of_literals cubes)))
  in
  QCheck2.Test.make ~name:"required literals match minterm comparison"
    ~count:200 ~print:Cover.to_string gen (fun c ->
      let vars = Array.of_list (Cover.support c) in
      let n = Array.length vars in
      let needs v phase =
        let rec any bits =
          bits < 1 lsl n
          && (let value forced x =
                if x = v then forced
                else
                  let i = Option.get (Array.find_index (Int.equal x) vars) in
                  bits land (1 lsl i) <> 0
              in
              (Cover.eval (value phase) c && not (Cover.eval (value (not phase)) c))
              || any (bits + 1))
        in
        any 0
      in
      Lit_floor.required_literals c
      = Array.fold_left
          (fun acc v ->
            acc + Bool.to_int (needs v true) + Bool.to_int (needs v false))
          0 vars)

(* The region-literal helper against minterm enumeration, with a
   region and with two functions, on sparse covers of up to 10
   variables (one truth table). *)
let prop_region_literals =
  let gen_sparse width =
    QCheck2.Gen.(
      let* cubes =
        list_size (int_range 0 5)
          (list_size (int_range 1 4)
             (let* v = int_range 0 (width - 1) in
              let* phase = bool in
              return (Literal.make (3 * v) phase)))
      in
      return (Cover.of_cubes (List.filter_map Cube.of_literals cubes)))
  in
  let gen =
    QCheck2.Gen.(
      let* width = int_range 1 10 in
      triple (gen_sparse width) (gen_sparse width) (gen_sparse width))
  in
  QCheck2.Test.make ~name:"region literals match minterm comparison"
    ~count:200
    ~print:(fun (f, g, r) ->
      String.concat " / " (List.map Cover.to_string [ f; g; r ]))
    gen
    (fun (f, g, r) ->
      let all = Cover.cubes f @ Cover.cubes g @ Cover.cubes r in
      let space = Option.get (Truth_table.space all) in
      let table c = Truth_table.of_cubes space (Cover.cubes c) in
      let vars = Array.of_list (Cover.support (Cover.of_cubes all)) in
      let n = Array.length vars in
      let value bits x =
        bits land (1 lsl Option.get (Array.find_index (Int.equal x) vars)) <> 0
      in
      (* Some pair differing in [vars.(i)] with [h] at 1 on [phase]'s side
         and 0 on the other, both minterms on one side of [region]. *)
      let needs ?region h i phase =
        let rec any bits =
          bits < 1 lsl n
          && ((let one = bits lor (1 lsl i) and zero = bits land lnot (1 lsl i) in
               let on, off = if phase then (one, zero) else (zero, one) in
               Cover.eval (value on) h
               && (not (Cover.eval (value off) h))
               &&
               match region with
               | None -> true
               | Some c -> Cover.eval (value on) c = Cover.eval (value off) c)
             || any (bits + 1))
        in
        any 0
      in
      let count p =
        List.length
          (List.filter (fun (i, phase) -> p i phase)
             (List.concat_map
                (fun i -> [ (i, true); (i, false) ])
                (List.init n Fun.id)))
      in
      Truth_table.region_literals ~region:(table r) [ table f ]
      = count (fun i phase -> needs ~region:r f i phase)
      && Truth_table.region_literals [ table f; table g ]
         = count (fun i phase -> needs f i phase || needs g i phase))

(* Random-graph clique laws. *)
let prop_cliques_are_maximal_cliques =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 9 in
      let* edges = list_size (int_range 0 20) (pair (int_range 0 8) (int_range 0 8)) in
      return (n, edges))
  in
  QCheck2.Test.make ~name:"Bron-Kerbosch returns exactly the maximal cliques"
    ~count:200
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=%s" n
        (String.concat ","
           (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) edges)))
    gen
    (fun (n, edges) ->
      let adjacent a b =
        a <> b
        && List.exists
             (fun (x, y) ->
               let x = x mod n and y = y mod n in
               (x = a && y = b) || (x = b && y = a))
             edges
      in
      let cliques = Booldiv.Clique.maximal_cliques ~n ~adjacent in
      let is_clique c =
        List.for_all (fun a -> List.for_all (fun b -> a = b || adjacent a b) c) c
      in
      let is_maximal c =
        List.for_all
          (fun v -> List.mem v c || not (List.for_all (adjacent v) c))
          (List.init n Fun.id)
      in
      List.for_all (fun c -> is_clique c && is_maximal c) cliques
      (* the greedy heuristic must also return a clique *)
      && is_clique (Booldiv.Clique.greedy_clique ~n ~adjacent))

(* [Clique.best_core] before it computed the adjacency matrix up front:
   [adjacent] intersects the two candidate lists on every call. *)
let frozen_best_core ~candidates ~serves =
  let module Clique = Booldiv.Clique in
  let intersection lists =
    match lists with
    | [] -> []
    | first :: rest ->
      List.filter (fun x -> List.for_all (List.mem x) rest) first
  in
  let n = Array.length candidates in
  if n = 0 then None
  else begin
    let adjacent a b =
      a <> b && intersection [ candidates.(a); candidates.(b) ] <> []
    in
    let cliques =
      if n <= Clique.exact_threshold then Clique.maximal_cliques ~n ~adjacent
      else [ Clique.greedy_clique ~n ~adjacent ]
    in
    let cliques = cliques @ List.init n (fun v -> [ v ]) in
    let evaluate members =
      let core = intersection (List.map (fun v -> candidates.(v)) members) in
      if core = [] then None
      else begin
        let served = List.filter (fun v -> serves v core) members in
        if served = [] then None
        else Some { Clique.members = served; core }
      end
    in
    List.fold_left
      (fun best clique ->
        match evaluate clique with
        | None -> best
        | Some choice -> (
          match best with
          | Some b when List.length b.Clique.members >= List.length choice.Clique.members ->
            best
          | _ -> Some choice))
      None cliques
  end

(* Random candidate tables of pool cubes, on both sides of the exact
   threshold (the greedy search runs above it). *)
let prop_best_core_matches_frozen =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 0 30 in
      let* universe = int_range 1 8 in
      let* table =
        array_size (return n)
          (list_size (int_range 0 4) (pair (int_range 0 universe) (int_range 0 2)))
      in
      let* salt = int_range 0 5 in
      return (table, salt))
  in
  QCheck2.Test.make ~name:"best_core matches the per-pair closure" ~count:400
    ~print:(fun (table, salt) ->
      Printf.sprintf "salt %d: %s" salt
        (String.concat " | "
           (Array.to_list
              (Array.map
                 (fun l ->
                   String.concat ","
                     (List.map (fun (m, j) -> Printf.sprintf "%d.%d" m j) l))
                 table))))
    gen
    (fun (candidates, salt) ->
      let serves v core = (v + salt + List.length core) mod 3 <> 0 in
      Booldiv.Clique.best_core ~candidates ~serves
      = frozen_best_core ~candidates ~serves)

let () =
  Alcotest.run "division"
    [
      ( "cover-level",
        [
          Alcotest.test_case "xor example" `Quick test_sop_xor_example;
          Alcotest.test_case "with remainder" `Quick test_sop_with_remainder;
          Alcotest.test_case "no division" `Quick test_sop_no_division;
          Alcotest.test_case "don't cares" `Quick test_sop_with_dc;
          Alcotest.test_case "pos division" `Quick test_pos_division;
          Alcotest.test_case "pos nontrivial" `Quick test_pos_nontrivial_quotient;
        ] );
      ( "lifted-cube",
        [
          Alcotest.test_case "containment" `Quick test_lifted_cube_containment;
        ] );
      ( "network-level",
        [
          Alcotest.test_case "xor" `Quick test_basic_division_xor;
          Alcotest.test_case "paper 6-5-4 shape" `Quick
            test_basic_division_paper_shape;
          Alcotest.test_case "not applicable" `Quick
            test_basic_division_not_applicable;
          Alcotest.test_case "cycle guard" `Quick test_basic_division_cycle_guard;
          Alcotest.test_case "no gain reverts" `Quick
            test_basic_division_no_gain_reverts;
          Alcotest.test_case "gdc mode" `Quick test_basic_division_gdc;
        ] );
      ( "extended",
        [
          Alcotest.test_case "votes and filter" `Quick test_votes_and_filter;
          Alcotest.test_case "clique selection" `Quick test_clique_selection;
          Alcotest.test_case "exact cliques" `Quick test_clique_exact_small;
          Alcotest.test_case "worked example" `Quick
            test_extended_division_example;
          Alcotest.test_case "multi-source core" `Quick
            test_extended_multi_source;
          Alcotest.test_case "pos substitution" `Quick test_pos_substitution;
          Alcotest.test_case "driver configurations" `Slow test_driver_configs;
          Alcotest.test_case "degraded run stays equivalent" `Quick
            test_degraded_run_preserves_equivalence;
          Alcotest.test_case "pre-checks are exact" `Quick
            test_prechecks_exact;
          Alcotest.test_case "literal floors match the frozen attempts" `Quick
            test_floors_match_oracle;
          Alcotest.test_case "remainder floor skips absorbed cubes" `Quick
            test_remainder_floor_skips_absorbed_cubes;
          Alcotest.test_case "slot SOS sets match the lifted ones" `Quick
            test_slot_sos_matches_lifted;
          Alcotest.test_case "basic unit matches the frozen one" `Quick
            test_attempt_basic_matches_frozen;
          Alcotest.test_case "POS remainder floor below the true count" `Quick
            test_pos_remainder_floor;
          Alcotest.test_case "POS remainder floor without the divisor" `Quick
            test_pos_floor_without_divisor;
          Alcotest.test_case "POS support test reads the cover" `Quick
            test_support_test_reads_cover;
          Alcotest.test_case "POS region floor" `Quick test_pos_region_floor;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sop_identity;
            prop_pos_identity;
            prop_pos_precheck_exact;
            prop_support_test_exact;
            prop_pos_matches_reference;
            prop_network_division_preserves;
            prop_network_division_gdc_preserves;
            prop_division_never_grows;
            prop_substitution_preserves;
            prop_extended_preserves;
            prop_cliques_are_maximal_cliques;
            prop_best_core_matches_frozen;
            prop_floors_below_true_count;
            prop_sliced_floor_below_stored_count;
            prop_functional_support;
            prop_combined_gate_exact;
            prop_required_literals;
            prop_region_literals;
          ] );
    ]
