(* Constructive simulation-guided k-resubstitution.

   The load-bearing property is the counterexample-refinement loop: a
   candidate that survives the signature test but fails exact validation
   must yield a counterexample row that distinguishes the pair forever,
   so the same wrong candidate is proposed at most once per run. The
   planted circuit below aliases a dividend and a two-literal shape on
   the base stimulus (they differ only where fourteen inputs are all 1 —
   beyond the reach of 64 random rows), forcing exactly that sequence:
   propose, refute, refine, never re-propose. *)

module Network = Logic_network.Network
module Builder = Logic_network.Builder
module Lit_count = Logic_network.Lit_count
module Dont_care = Logic_network.Dont_care
module Lift = Logic_network.Lift
module Suite = Bench_suite.Suite
module Counters = Rar_util.Counters

let bdd_equivalent = Robdd.Of_network.equivalent

let inputs14 =
  [ "c"; "d"; "e"; "f"; "g"; "h"; "i"; "j"; "k"; "l"; "m"; "n"; "o"; "p" ]

(* [w = cd' + t] agrees with the pair [c·d'] everywhere except where
   [t], the product of all fourteen inputs, is 1 — 2^-14 of the input
   space, which one 64-row signature word misses with near certainty.
   [w] is allocated before [t] (its function is set once [t] exists), so
   the ascending-id scheduler scans [w] while the base stimulus still
   aliases it with [c·d'], and scans [t] only once the counterexample
   row (every input 1) has made it nonzero. Every literal that is 1 on
   that row is one of [t]'s own, so no divisor can absorb [t]'s cube. *)
let aliased_net () =
  let net =
    Builder.of_spec ~inputs:inputs14
      ~nodes:[ ("w", "c"); ("t", "cdefghijklmnop") ]
      ~outputs:[ "w" ]
  in
  let lit name pos =
    let id = Builder.node net name in
    if pos then Twolevel.Literal.pos id else Twolevel.Literal.neg id
  in
  Lift.set_cover net (Builder.node net "w")
    (Twolevel.Cover.of_cubes
       [
         Twolevel.Cube.of_literals_exn [ lit "c" true; lit "d" false ];
         Twolevel.Cube.of_literals_exn [ lit "t" true ];
       ]);
  net

let test_refinement_no_reproposal () =
  let net = aliased_net () in
  let reference = aliased_net () in
  let counters = Counters.create () in
  let n = Synth.Kresub.run ~sim_words:1 ~counters net in
  Alcotest.(check bool)
    "net untouched and still equivalent" true
    (bdd_equivalent net reference);
  Alcotest.(check int) "no substitution committed" 0 n;
  (* The aliased pair must be proposed and refuted exactly once: the
     counterexample row (every input 1) pins the difference into the
     stimulus permanently, so every later restart and scan rejects the
     shape on signatures alone. A re-proposal would validate, fail and
     refine again, so any count above 1 here means the invariant
     broke. *)
  Alcotest.(check int) "exactly one candidate proposed" 1
    (Atomic.get counters.Counters.kresub_candidates);
  Alcotest.(check int)
    "exactly one refinement" 1
    (Atomic.get counters.Counters.kresub_refinements);
  Alcotest.(check int)
    "nothing survived validation" 0
    (Atomic.get counters.Counters.kresub_validated);
  let w = Builder.node net "w" in
  Alcotest.(check int) "w keeps its 3 literals" 3
    (Lit_count.node_factored net w)

let test_zero_resub_duplicate () =
  let build () =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("u", "ab + c"); ("v", "ab + c") ]
      ~outputs:[ "u"; "v" ]
  in
  let net = build () in
  let n = Synth.Kresub.run net in
  Alcotest.(check bool) "duplicate collapsed to a wire" true (n >= 1);
  Alcotest.(check bool)
    "result BDD-equivalent" true
    (bdd_equivalent net (build ()))

let test_one_resub_and () =
  let build () =
    Builder.of_spec ~inputs:[ "a"; "b"; "c"; "d" ]
      ~nodes:
        [ ("s", "a + b"); ("t", "c + d"); ("u", "ac + ad + bc + bd") ]
      ~outputs:[ "u"; "s"; "t" ]
  in
  let net = build () in
  let n = Synth.Kresub.run net in
  Alcotest.(check bool) "at least one substitution" true (n >= 1);
  let u = Builder.node net "u" in
  Alcotest.(check int) "u rebuilt as s.t" 2 (Lit_count.node_factored net u);
  Alcotest.(check bool)
    "result BDD-equivalent" true
    (bdd_equivalent net (build ()))

let test_sim_words () =
  let build () =
    let row = Option.get (Suite.find "alu_slice") in
    let net = Suite.build row in
    Synth.Script.run net Synth.Script.script_a;
    net
  in
  let reference = build () in
  List.iter
    (fun words ->
      let net = Network.copy reference in
      ignore (Synth.Kresub.run ~sim_words:words net);
      Alcotest.(check bool)
        (Printf.sprintf "sim_words=%d result BDD-equivalent" words)
        true
        (bdd_equivalent net reference))
    [ 1; 2; 8 ];
  Alcotest.check_raises "sim_words = 0 rejected"
    (Invalid_argument "Kresub.run: sim_words must be positive") (fun () ->
      ignore (Synth.Kresub.run ~sim_words:0 (build ())))

let test_empty_dc_invisible () =
  let base =
    let row = Option.get (Suite.find "alu_slice") in
    let net = Suite.build row in
    Synth.Script.run net Synth.Script.script_a;
    net
  in
  let plain = Network.copy base in
  ignore (Synth.Kresub.run plain);
  let with_dc = Network.copy base in
  ignore (Synth.Kresub.run ~dc:Dont_care.empty with_dc);
  Alcotest.(check string)
    "empty view byte-invisible"
    (Network.to_string plain)
    (Network.to_string with_dc)

(* A frozen copy of the shape enumeration as it stood before the
   word-first kernel: every shape is built as a list, and its signature
   is folded word by word through [Signature.signature]. The kernel must
   list exactly the shapes this one keeps, in the same order. *)
module Oracle = struct
  module Signature = Logic_sim.Signature
  module Cover = Twolevel.Cover
  module Cube = Twolevel.Cube
  module Literal = Twolevel.Literal

  type lit = { l_node : Network.node_id; l_pos : bool }

  type shape = Const of bool | Sop of lit list list

  let lit n p = { l_node = n; l_pos = p }

  let rec cube_word sim w acc = function
    | [] -> acc
    | l :: tl ->
      let v = (Signature.signature sim l.l_node).(w) in
      cube_word sim w
        (Int64.logand acc (if l.l_pos then v else Int64.lognot v))
        tl

  let rec sop_word sim w acc = function
    | [] -> acc
    | cube :: tl ->
      sop_word sim w (Int64.logor acc (cube_word sim w Int64.minus_one cube)) tl

  let shape_word sim shape w =
    match shape with
    | Const b -> if b then Int64.minus_one else 0L
    | Sop cubes -> sop_word sim w 0L cubes

  let shape_sig sim shape =
    Array.init (Signature.words sim) (shape_word sim shape)

  let shape_matches sim sf shape =
    let care = Signature.care_mask sim in
    let rec go w =
      w >= Signature.words sim
      ||
      let diff = Int64.logxor sf.(w) (shape_word sim shape w) in
      let diff =
        match care with None -> diff | Some m -> Int64.logand m.(w) diff
      in
      Int64.equal diff 0L && go (w + 1)
    in
    go 0

  let shape_cover = function
    | Const false -> Cover.zero
    | Const true -> Cover.one
    | Sop cubes ->
      Cover.of_cubes
        (List.map
           (fun cube ->
             Cube.of_literals_exn
               (List.map
                  (fun l ->
                    if l.l_pos then Literal.pos l.l_node
                    else Literal.neg l.l_node)
                  cube))
           cubes)

  let absorption_shapes net sim ~f ~sf ~ranked ~cur_lits =
    let fanins = Network.fanins net f in
    let cubes =
      Array.of_list
        (List.map
           (fun c ->
             List.map
               (fun l -> lit fanins.(Literal.var l) (Literal.is_pos l))
               (Cube.literals c))
           (Cover.cubes (Network.cover net f)))
    in
    let nc = Array.length cubes in
    if nc < 1 || nc > 32 then []
    else begin
      let sigs = Array.map (fun c -> shape_sig sim (Sop [ c ])) cubes in
      let old_sop = Array.fold_left (fun n c -> n + List.length c) 0 cubes in
      let acc = ref [] in
      Array.iter
        (fun d ->
          List.iter
            (fun pd ->
              let dsig =
                let v = Signature.signature sim d in
                Array.init (Signature.words sim) (fun w ->
                    if pd then v.(w) else Int64.lognot v.(w))
              in
              let absorbable =
                Array.mapi
                  (fun i c ->
                    Signature.subset_on_care sim sigs.(i) dsig
                    && not (List.exists (fun l -> l.l_node = d) c))
                  cubes
              in
              if Array.exists Fun.id absorbable then begin
                let changed = ref false in
                let rebuilt = ref [] in
                Array.iteri
                  (fun i c ->
                    if absorbable.(i) then begin
                      let q = ref c in
                      List.iter
                        (fun l ->
                          let q' = List.filter (fun l' -> l' <> l) !q in
                          let qsig = shape_sig sim (Sop [ lit d pd :: q' ]) in
                          if Signature.subset_on_care sim qsig sf then q := q')
                        c;
                      if List.length !q < List.length c then begin
                        changed := true;
                        rebuilt := (lit d pd :: !q) :: !rebuilt
                      end
                      else rebuilt := c :: !rebuilt
                    end
                    else rebuilt := c :: !rebuilt)
                  cubes;
                if !changed then begin
                  let seen = Hashtbl.create 17 in
                  let dedup =
                    List.filter
                      (fun cube ->
                        let key =
                          List.sort compare
                            (List.map (fun l -> (l.l_node, l.l_pos)) cube)
                        in
                        if Hashtbl.mem seen key then false
                        else begin
                          Hashtbl.replace seen key ();
                          true
                        end)
                      (List.rev !rebuilt)
                  in
                  let lits =
                    List.fold_left (fun n c -> n + List.length c) 0 dedup
                  in
                  if lits < old_sop && cur_lits > 1 then
                    acc := Sop dedup :: !acc
                end
              end)
            [ true; false ])
        ranked;
      List.rev !acc
    end

  let shapes_for ~max_triples ~pool ~ranked ~cur_lits ~keep =
    let bools = [ true; false ] in
    let acc = ref [] in
    let push sh est = if est < cur_lits && keep sh then acc := sh :: !acc in
    push (Const false) 0;
    push (Const true) 0;
    List.iter
      (fun d ->
        push (Sop [ [ lit d true ] ]) 1;
        push (Sop [ [ lit d false ] ]) 1)
      pool;
    let n = Array.length ranked in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let g = ranked.(i) and h = ranked.(j) in
        List.iter
          (fun pg ->
            List.iter (fun ph -> push (Sop [ [ lit g pg; lit h ph ] ]) 2) bools)
          bools;
        List.iter
          (fun pg ->
            List.iter
              (fun ph -> push (Sop [ [ lit g pg ]; [ lit h ph ] ]) 2)
              bools)
          bools;
        push
          (Sop [ [ lit g true; lit h false ]; [ lit g false; lit h true ] ])
          4;
        push
          (Sop [ [ lit g true; lit h true ]; [ lit g false; lit h false ] ])
          4
      done
    done;
    let m = min n max_triples in
    for i = 0 to m - 1 do
      for j = i + 1 to m - 1 do
        for k = j + 1 to m - 1 do
          let g = ranked.(i) and h = ranked.(j) and q = ranked.(k) in
          List.iter
            (fun pg ->
              List.iter
                (fun ph ->
                  List.iter
                    (fun pq ->
                      push (Sop [ [ lit g pg; lit h ph; lit q pq ] ]) 3;
                      push (Sop [ [ lit g pg ]; [ lit h ph ]; [ lit q pq ] ]) 3)
                    bools)
                bools)
            bools;
          let arrange lone o1 o2 =
            List.iter
              (fun pl ->
                List.iter
                  (fun p1 ->
                    List.iter
                      (fun p2 ->
                        push
                          (Sop
                             [
                               [ lit lone pl; lit o1 p1 ];
                               [ lit lone pl; lit o2 p2 ];
                             ])
                          3;
                        push
                          (Sop [ [ lit lone pl ]; [ lit o1 p1; lit o2 p2 ] ])
                          3)
                      bools)
                  bools)
              bools
          in
          arrange g h q;
          arrange h g q;
          arrange q g h;
          let mux s o1 o2 =
            List.iter
              (fun p1 ->
                List.iter
                  (fun p2 ->
                    push
                      (Sop
                         [ [ lit s true; lit o1 p1 ]; [ lit s false; lit o2 p2 ] ])
                      4)
                  bools)
              bools
          in
          mux g h q;
          mux g q h;
          mux h g q;
          mux h q g;
          mux q g h;
          mux q h g
        done
      done
    done;
    let m4 = min n (max_triples - 2) in
    for i = 0 to m4 - 1 do
      for j = i + 1 to m4 - 1 do
        for k = i + 1 to m4 - 1 do
          for l = k + 1 to m4 - 1 do
            if k <> j && l <> j && k > i then begin
              let g = ranked.(i) and h = ranked.(j) in
              let q = ranked.(k) and r = ranked.(l) in
              List.iter
                (fun ph ->
                  List.iter
                    (fun pr ->
                      push
                        (Sop [ [ lit g true; lit h ph ]; [ lit q true; lit r pr ] ])
                        4;
                      push
                        (Sop
                           [ [ lit g false; lit h ph ]; [ lit q true; lit r pr ] ])
                        4)
                    bools)
                bools
            end
          done
        done
      done
    done;
    List.rev !acc

  let proposals ~max_divisors ~max_triples sim net f =
    let cur_lits = Lit_count.node_factored net f in
    let sf = Signature.signature sim f in
    let pool =
      List.filter
        (fun d ->
          d <> f
          && Network.mem net d
          && not (Network.depends_on net d f))
        (List.sort Int.compare (Network.node_ids net))
    in
    let ranked =
      let scored =
        List.map
          (fun d -> (Signature.agreement sim sf (Signature.signature sim d), d))
          pool
      in
      let sorted =
        List.sort
          (fun (s1, d1) (s2, d2) ->
            if s1 <> s2 then Int.compare s2 s1 else Int.compare d1 d2)
          scored
      in
      Array.of_list
        (List.filteri (fun i _ -> i < max_divisors) (List.map snd sorted))
    in
    let keep = shape_matches sim sf in
    List.map shape_cover
      (shapes_for ~max_triples ~pool ~ranked ~cur_lits ~keep
      @ List.filter keep (absorption_shapes net sim ~f ~sf ~ranked ~cur_lits))
end

(* Planted b9-sized networks after script A, as resub-k meets them, and
   random networks over five inputs, where 64 rows nearly cover the
   input space and many shapes of every family match. *)
let proposal_nets () =
  let profile =
    match Suite.find "b9" with
    | Some { Suite.source = Suite.Synthetic p; _ } -> p
    | _ -> assert false
  in
  List.map
    (fun seed ->
      let net = Bench_suite.Generator.planted ~seed profile in
      Synth.Script.run net Synth.Script.script_a;
      (seed, net))
    [ 3; 29 ]
  @ List.map
      (fun seed ->
        ( seed,
          Bench_suite.Generator.random ~seed ~n_inputs:5 ~n_nodes:24
            ~n_outputs:4 () ))
      [ 41; 43 ]

(* The same networks after a [Kresub.run], whose commits rewired
   divisors and with them the TFO sets pools are drawn from. *)
let rewired_nets () =
  List.map
    (fun (seed, net) ->
      let before = Network.to_string net in
      if Synth.Kresub.run net = 0 || Network.to_string net = before then
        Alcotest.failf "seed %d: the run committed nothing" seed;
      (seed, net))
    (proposal_nets ())

(* The kernel's proposals equal the frozen enumeration's, element by
   element, for every dividend: across signature widths, with a
   non-empty don't-care view (the care mask's word 0 enters the word-0
   test), with counterexample rows in the stimulus, and on networks a
   run has already rewritten. The divisor budgets are widened past the
   defaults so triples and quads see more ranked divisors than a
   default scan. *)
let test_proposal_order () =
  let compared = ref 0 and proposed = ref 0 in
  List.iter
    (fun (seed, net) ->
      let inputs = Array.of_list (Network.inputs net) in
      let rng = Random.State.make [| seed |] in
      let rows =
        List.init 5 (fun _ ->
            Array.map (fun _ -> Random.State.bool rng) inputs)
      in
      let dc =
        Dont_care.make
          [
            [
              (Network.name net inputs.(0), true);
              (Network.name net inputs.(1), false);
            ];
          ]
      in
      List.iter
        (fun (words, dc, rows, max_divisors, max_triples) ->
          let sim = Logic_sim.Signature.create ~words ?dc net in
          List.iter (Logic_sim.Signature.refine sim) rows;
          List.iter
            (fun f ->
              if not (Network.is_input net f) then begin
                let expected =
                  Oracle.proposals ~max_divisors ~max_triples sim net f
                in
                let actual =
                  Synth.Kresub.proposals ~max_divisors ~max_triples sim net f
                in
                incr compared;
                proposed := !proposed + List.length actual;
                Alcotest.(check int)
                  (Printf.sprintf "seed %d words %d node %d: count" seed words f)
                  (List.length expected) (List.length actual);
                List.iteri
                  (fun i (e, a) ->
                    if not (Twolevel.Cover.equal e a) then
                      Alcotest.failf
                        "seed %d words %d node %d: proposal %d is %s, expected %s"
                        seed words f i
                        (Twolevel.Cover.to_string a)
                        (Twolevel.Cover.to_string e))
                  (List.combine expected actual)
              end)
            (Network.node_ids net);
          Logic_sim.Signature.detach sim)
        [
          (1, None, [], 24, 8);
          (2, None, [], 24, 8);
          (8, None, [], 24, 8);
          (1, Some dc, [], 24, 8);
          (2, Some dc, rows, 24, 8);
          (8, Some dc, [], 24, 8);
          (1, None, rows, 32, 10);
          (8, None, rows, 24, 8);
        ])
    (proposal_nets () @ rewired_nets ());
  Alcotest.(check bool) "dividends compared" true (!compared > 0);
  Alcotest.(check bool) "some shape proposed" true (!proposed > 0)

(* The scan loop as it stood before the quiet-scan table, kept as the
   reference: every scan ranks, enumerates (the frozen enumeration
   above) and validates again, and a refuted shape refines and restarts
   the scan, at most 16 times. Returns the substitution count. *)
let frozen_run ~sim_words ?dc net =
  let sim = Logic_sim.Signature.create ~words:sim_words ?dc net in
  let o = Synth.Kresub.oracle ?dc net in
  let substitutions = ref 0 in
  let scan_once f =
    let cur_lits = Lit_count.node_factored net f in
    let rec try_covers = function
      | [] -> `Quiet
      | cover :: tl -> (
        match Synth.Kresub.validate o ~f cover with
        | Some assign ->
          if List.length (Logic_sim.Signature.rows sim) < 64 * sim_words
          then begin
            Logic_sim.Signature.refine sim assign;
            `Refined
          end
          else try_covers tl
        | None ->
          if Synth.Kresub.commit o ~f ~below:cur_lits cover then `Committed
          else try_covers tl)
    in
    try_covers
      (Oracle.proposals ~max_divisors:Synth.Kresub.default_max_divisors
         ~max_triples:Synth.Kresub.default_max_triples sim net f)
  in
  let scan f =
    let rec go restarts =
      match scan_once f with
      | `Refined when restarts < 16 -> go (restarts + 1)
      | outcome -> outcome
    in
    let committed = go 0 = `Committed in
    if committed then incr substitutions;
    committed
  in
  Booldiv.Scheduler.run ~driver:"kresub" ~max_passes:4
    ~trace:Rar_util.Trace.disabled ~counters:(Counters.create ()) net scan;
  Logic_sim.Signature.detach sim;
  !substitutions

(* [Kresub.run], which answers a scan that repeats the dividend's last
   quiet one from its table, writes the bytes the frozen driver writes
   and counts the same substitutions: with no view, an empty view and a
   one-cube EXCDC view, at one word (the rows fill, so restarts and the
   full-rows branch run) and at the default width. *)
let test_run_matches_frozen_driver () =
  let reused = ref 0 and substituted = ref 0 and refined = ref 0 in
  List.iter
    (fun (seed, base) ->
      List.iter
        (fun (view_name, view) ->
          List.iter
            (fun sim_words ->
              let expected_net = Network.copy base in
              let expected =
                frozen_run ~sim_words ?dc:(view expected_net) expected_net
              in
              let net = Network.copy base in
              let counters = Counters.create () in
              let got =
                Synth.Kresub.run ~sim_words ~counters ?dc:(view net) net
              in
              let where =
                Printf.sprintf "seed %d, %s, %d words" seed view_name sim_words
              in
              Alcotest.(check int) (where ^ ": substitutions") expected got;
              Alcotest.(check string) (where ^ ": bytes")
                (Logic_network.Blif.to_string expected_net)
                (Logic_network.Blif.to_string net);
              reused := !reused + Atomic.get counters.Counters.kresub_reused;
              refined :=
                !refined + Atomic.get counters.Counters.kresub_refinements;
              substituted := !substituted + got)
            [ 1; Logic_sim.Signature.default_words ])
        [
          ("no view", fun _ -> None);
          ("empty view", fun _ -> Some Dont_care.empty);
          ( "one-cube view",
            fun net ->
              Some
                (Dont_care.make
                   [ [ (Network.name net (List.hd (Network.inputs net)), true) ] ])
          );
        ])
    (proposal_nets ()
    @ List.map
        (fun seed ->
          ( seed,
            Bench_suite.Generator.random ~seed ~n_inputs:5 ~n_nodes:24
              ~n_outputs:4 () ))
        [ 9; 12 ]);
  Alcotest.(check bool) "some scans reused" true (!reused > 0);
  Alcotest.(check bool) "some refinements" true (!refined > 0);
  Alcotest.(check bool) "some substitutions" true (!substituted > 0)

(* ------------------------------------------------------------------ *)
(* Oracle tables and commits                                           *)
(* ------------------------------------------------------------------ *)

module Bdd = Robdd.Bdd
module Of_network = Robdd.Of_network

(* The oracle's table holds a fresh [Of_network.all]'s BDDs (compared in
   the table's own manager, where equal functions are equal nodes), and
   a second query at the same revision returns the same table. *)
let check_table o net =
  let man, nodes = Synth.Kresub.oracle_table o in
  let fresh = Of_network.all man net in
  if Hashtbl.length nodes <> Hashtbl.length fresh then
    Alcotest.fail "table size differs from a fresh sweep";
  Hashtbl.iter
    (fun id b ->
      if not (Bdd.equal b (Hashtbl.find nodes id)) then
        Alcotest.failf "node %d: stale BDD" id)
    fresh;
  let _, again = Synth.Kresub.oracle_table o in
  if again != nodes then Alcotest.fail "table rebuilt at an unchanged revision"

let prop_oracle_table_tracks_revisions =
  QCheck2.Test.make ~name:"oracle table equals a fresh sweep after mutations"
    ~count:60 ~print:string_of_int Net_mutations.gen_seed (fun seed ->
      let rng, net = Net_mutations.initial seed in
      let o = Synth.Kresub.oracle net in
      check_table o net;
      Net_mutations.mutate rng net ~steps:20 ~after_step:(check_table o);
      true)

(* The commit before it decided ahead of the mutation, kept as the
   reference: install, count, restore on a loss. *)
let frozen_commit net ~f ~cur_lits lifted =
  let before_cover = Network.cover net f in
  let before_fanins = Network.fanins net f in
  match Lift.set_cover net f lifted with
  | exception Network.Cyclic _ -> false
  | () ->
    Lit_count.node_factored net f < cur_lits
    || begin
         Network.set_function net f ~fanins:before_fanins before_cover;
         false
       end

(* [cover] (over node ids) computes [f]'s global function. *)
let valid net ~f cover =
  let man = Bdd.create () in
  let nodes = Of_network.all man net in
  let lit l =
    let b = Hashtbl.find nodes (Twolevel.Literal.var l) in
    if Twolevel.Literal.is_pos l then b else Bdd.not_ man b
  in
  let shape =
    List.fold_left
      (fun acc cube ->
        Bdd.bor man acc
          (Twolevel.Cube.fold_literals
             (fun conj l -> Bdd.band man conj (lit l))
             (Bdd.btrue man) cube))
      (Bdd.bfalse man) (Twolevel.Cover.cubes cover)
  in
  Bdd.equal shape (Hashtbl.find nodes f)

(* Every validated proposal of every dividend, and [f]'s own lifted cover
   (validated, never smaller), commits exactly when the frozen
   set-then-compare commit does, to the same fanins and cover; a losing
   one leaves the revision alone. The oracle's table follows each
   commit. *)
let test_commit_decides_before_mutating () =
  let wins = ref 0 and losses = ref 0 in
  List.iter
    (fun (_, net) ->
      let sim = Logic_sim.Signature.create net in
      let o = Synth.Kresub.oracle net in
      List.iter
        (fun f ->
          if Network.mem net f && not (Network.is_input net f) then begin
            let cur_lits = Lit_count.node_factored net f in
            let rec go = function
              | [] -> ()
              | cover :: rest ->
                if not (valid net ~f cover) then go rest
                else begin
                  let reference = Network.copy net in
                  let expected = frozen_commit reference ~f ~cur_lits cover in
                  let rev = Network.revision net in
                  let got = Lift.set_cover_if_cheaper net f ~below:cur_lits cover in
                  Alcotest.(check bool) "same verdict" expected got;
                  if got then begin
                    incr wins;
                    Alcotest.(check (array int)) "same fanins"
                      (Network.fanins reference f) (Network.fanins net f);
                    Alcotest.(check bool) "same cover" true
                      (Twolevel.Cover.equal (Network.cover reference f)
                         (Network.cover net f));
                    check_table o net
                  end
                  else begin
                    incr losses;
                    Alcotest.(check int) "revision unchanged" rev
                      (Network.revision net);
                    go rest
                  end
                end
            in
            go
              (Synth.Kresub.proposals sim net f @ [ Lift.cover net f ])
          end)
        (List.sort Int.compare (Network.node_ids net));
      Logic_sim.Signature.detach sim)
    (proposal_nets ());
  Alcotest.(check bool) "some commits" true (!wins > 0);
  Alcotest.(check bool) "some losses" true (!losses > 0)

(* Each dividend's first validated proposal that commits, through the
   oracle's own [commit] as [Kresub.run] commits. With no view or an
   empty one, the table current before the commit is kept (the same
   table) and still equals a fresh sweep; with a non-empty EXCDC view
   the next query rebuilds it. *)
let test_oracle_kept_across_commits () =
  let check_view name view ~kept =
    let commits = ref 0 in
    List.iter
      (fun (_, net) ->
        let sim = Logic_sim.Signature.create net in
        let o = Synth.Kresub.oracle ?dc:(view net) net in
        List.iter
          (fun f ->
            if Network.mem net f && not (Network.is_input net f) then begin
              let below = Lit_count.node_factored net f in
              let rec go = function
                | [] -> ()
                | cover :: rest ->
                  if not (valid net ~f cover) then go rest
                  else begin
                    let _, before = Synth.Kresub.oracle_table o in
                    if Synth.Kresub.commit o ~f ~below cover then begin
                      incr commits;
                      let _, after = Synth.Kresub.oracle_table o in
                      if (after == before) <> kept then
                        Alcotest.failf "%s: node %d: table %s" name f
                          (if kept then "rebuilt" else "kept");
                      check_table o net
                    end
                    else go rest
                  end
              in
              go (Synth.Kresub.proposals sim net f)
            end)
          (List.sort Int.compare (Network.node_ids net));
        Logic_sim.Signature.detach sim)
      (proposal_nets ());
    Alcotest.(check bool) (name ^ ": some commits") true (!commits > 0)
  in
  check_view "no view" (fun _ -> None) ~kept:true;
  check_view "empty view" (fun _ -> Some Dont_care.empty) ~kept:true;
  check_view "view over no input"
    (fun _ -> Some (Dont_care.make [ [ ("ghost", true) ] ]))
    ~kept:true;
  check_view "non-empty view"
    (fun net ->
      Some
        (Dont_care.make
           [ [ (Network.name net (List.hd (Network.inputs net)), true) ] ]))
    ~kept:false

let () =
  Alcotest.run "kresub"
    [
      ( "refinement",
        [
          Alcotest.test_case "propose, refute, never re-propose" `Quick
            test_refinement_no_reproposal;
        ] );
      ( "construction",
        [
          Alcotest.test_case "0-resub duplicate" `Quick
            test_zero_resub_duplicate;
          Alcotest.test_case "1-resub AND of two nodes" `Quick
            test_one_resub_and;
          Alcotest.test_case "proposals match the frozen enumeration" `Quick
            test_proposal_order;
          Alcotest.test_case "run matches the frozen driver" `Quick
            test_run_matches_frozen_driver;
        ] );
      ( "discipline",
        [
          Alcotest.test_case "sim_words sizes the vector" `Quick
            test_sim_words;
          Alcotest.test_case "empty DC view invisible" `Quick
            test_empty_dc_invisible;
          Alcotest.test_case "commit decides before mutating" `Quick
            test_commit_decides_before_mutating;
          Alcotest.test_case "oracle table kept across commits" `Quick
            test_oracle_kept_across_commits;
          QCheck_alcotest.to_alcotest prop_oracle_table_tracks_revisions;
        ] );
    ]
