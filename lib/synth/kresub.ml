open Twolevel
module Network = Logic_network.Network
module Fanin_cache = Logic_network.Fanin_cache
module Dirty = Logic_network.Dirty
module Dont_care = Logic_network.Dont_care
module Division_memo = Booldiv.Division_memo
module Scheduler = Booldiv.Scheduler
module Lit_count = Logic_network.Lit_count
module Signature = Logic_sim.Signature
module Simulate = Logic_sim.Simulate
module Bdd = Robdd.Bdd
module Of_network = Robdd.Of_network
module Counters = Rar_util.Counters
module Rng = Rar_util.Rng
module Trace = Rar_util.Trace

let default_max_divisors = 24

let default_max_triples = 8

(* A dividend whose every failed validation spawns a counterexample could
   in principle refine forever on pathological don't-care interactions;
   after this many restarts the dividend is abandoned for the pass. *)
let max_restarts = 16

let popcount64 x =
  let x =
    Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L)
  in
  let x =
    Int64.add
      (Int64.logand x 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
  in
  let x =
    Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL
  in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)
  land 0x7f

(* ------------------------------------------------------------------ *)
(* Refinable simulation state                                          *)
(* ------------------------------------------------------------------ *)

(* Unlike the incremental {!Signature} engine this state owns its input
   stimulus, because refinement overwrites stimulus rows with
   counterexample assignments: row [j] (bit [j mod 64] of word [j / 64])
   of every input holds counterexample [j], rows past the
   counterexamples keep the deterministic base pattern — the same
   [seed]-and-id-derived splitmix stream the signature filter uses, so
   runs are reproducible for any (seed, words, counterexample) history.
   Staleness is keyed on {!Network.revision} plus the counterexample
   count, so a mutate-and-restore probe only costs a resimulation, never
   a wrong value. *)
type sim = {
  sim_net : Network.t;
  words : int;
  seed : int;
  dc : Dont_care.t option;
  mutable values : Simulate.valuation;
  mutable care : int64 array;
  mutable ncex : int;
  mutable rev : int;  (* network revision at last resimulation; -1 = never *)
}

let sim_create ~words ~seed ?dc net =
  {
    sim_net = net;
    words;
    seed;
    dc;
    values = Hashtbl.create 1;
    care = [||];
    ncex = 0;
    rev = -1;
  }

let base_pattern ~words ~seed id =
  let rng = Rng.create (seed lxor ((id + 1) * 0x9e3779b9)) in
  Array.init words (fun _ -> Rng.int64 rng)

(* [cex]: oldest first, each a full assignment over the primary inputs
   in {!Network.inputs} order. Assignments past the vector's capacity of
   [64 * words] rows are not representable and are never appended by the
   driver. *)
let sim_refresh s ~cex =
  let want = List.length cex in
  if s.rev <> Network.revision s.sim_net || s.ncex <> want then begin
    let inputs = Network.inputs s.sim_net in
    let patterns = Hashtbl.create 17 in
    List.iteri
      (fun i id ->
        let arr = base_pattern ~words:s.words ~seed:s.seed id in
        List.iteri
          (fun j (assign : bool array) ->
            if j < s.words * 64 then begin
              let w = j / 64 and b = j land 63 in
              let m = Int64.shift_left 1L b in
              arr.(w) <-
                (if assign.(i) then Int64.logor arr.(w) m
                 else Int64.logand arr.(w) (Int64.lognot m))
            end)
          cex;
        Hashtbl.replace patterns id arr)
      inputs;
    s.values <-
      Simulate.run s.sim_net ~words:s.words ~input_values:(fun id ->
          match Hashtbl.find_opt patterns id with
          | Some a -> a
          | None -> Array.make s.words 0L);
    s.care <-
      (match s.dc with
      | Some dc when not (Dont_care.is_empty dc) ->
        let by_name = Hashtbl.create 17 in
        List.iter
          (fun id ->
            Hashtbl.replace by_name (Network.name s.sim_net id)
              (Hashtbl.find patterns id))
          inputs;
        Dont_care.care_mask dc ~words:s.words
          ~stimulus:(Hashtbl.find_opt by_name)
      | _ -> Array.make s.words Int64.minus_one);
    s.ncex <- want;
    s.rev <- Network.revision s.sim_net
  end

let sim_value s id = Hashtbl.find s.values id

(* ------------------------------------------------------------------ *)
(* Candidate shapes                                                    *)
(* ------------------------------------------------------------------ *)

type lit = { l_node : Network.node_id; l_pos : bool }

(* A candidate is a tiny SOP over existing nodes — it is committed as a
   lifted cover through {!Lift.set_cover}, so a kresub rewrite never
   allocates a node id (the id burn of every attempt is zero). *)
type shape = Const of bool | Sop of lit list list

type cand = { c_shape : shape; c_est : int }

let lit n p = { l_node = n; l_pos = p }

let shape_sig s = function
  | Const b -> Array.make s.words (if b then Int64.minus_one else 0L)
  | Sop cubes ->
    let acc = Array.make s.words 0L in
    List.iter
      (fun cube ->
        let c = Array.make s.words Int64.minus_one in
        List.iter
          (fun l ->
            let v = sim_value s l.l_node in
            for w = 0 to s.words - 1 do
              let x = if l.l_pos then v.(w) else Int64.lognot v.(w) in
              c.(w) <- Int64.logand c.(w) x
            done)
          cube;
        for w = 0 to s.words - 1 do
          acc.(w) <- Int64.logor acc.(w) c.(w)
        done)
      cubes;
    acc

let eq_masked care a b =
  let n = Array.length a in
  let rec go w =
    w >= n
    || Int64.logand care.(w) (Int64.logxor a.(w) b.(w)) = 0L
       && go (w + 1)
  in
  go 0

(* [a ⊆ b] on the care rows: no row where [a] holds and [b] does not. *)
let leq_masked care a b =
  let n = Array.length a in
  let rec go w =
    w >= n
    || Int64.logand care.(w) (Int64.logand a.(w) (Int64.lognot b.(w))) = 0L
       && go (w + 1)
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

(* Sub-node candidates: rewrite the dividend's whole cover against one
   divisor — the constructive rendering of SIS-style resubstitution.
   For a divisor [g] (either phase), every cube [c ⊆ g] (a masked
   signature test) is rewritten as [g·q] where [q] is a greedily
   minimised sub-cube of [c] keeping [g·q ⊆ f]; cubes outside [g] stay
   verbatim, and cubes that collapse to the same product merge. The
   cross-cube merge is where the gain lives: absorbing cubes one at a
   time breaks the cover's own factoring, absorbing them all against
   the same divisor rebuilds it one literal cheaper. Every test here is
   a necessary condition read off the signatures — the BDD validator is
   the proof, and a false positive refines the stimulus like any other
   candidate. *)
let absorption_shapes sim ~f ~sf ~ranked ~cur_lits =
  let net = sim.sim_net in
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
    let old_sop =
      Array.fold_left (fun n c -> n + List.length c) 0 cubes
    in
    let acc = ref [] in
    Array.iter
      (fun d ->
        List.iter
          (fun pd ->
            let dsig =
              let v = sim_value sim d in
              Array.init sim.words (fun w ->
                  if pd then v.(w) else Int64.lognot v.(w))
            in
            let absorbable =
              Array.mapi
                (fun i c ->
                  leq_masked sim.care sigs.(i) dsig
                  && not (List.exists (fun l -> l.l_node = d) c))
                cubes
            in
            if Array.exists Fun.id absorbable then begin
              let changed = ref false in
              let rebuilt = ref [] in
              Array.iteri
                (fun i c ->
                  if absorbable.(i) then begin
                    (* Greedy quotient: drop every literal whose removal
                       keeps the g-cube inside f. *)
                    let q = ref c in
                    List.iter
                      (fun l ->
                        let q' = List.filter (fun l' -> l' <> l) !q in
                        let qsig =
                          shape_sig sim (Sop [ lit d pd :: q' ])
                        in
                        if leq_masked sim.care qsig sf then q := q')
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
                if lits < old_sop then
                  acc :=
                    { c_shape = Sop dedup; c_est = max 1 (cur_lits - 1) }
                    :: !acc
              end
            end)
          [ true; false ])
      ranked;
    List.rev !acc
  end

(* The deterministic candidate order for one dividend: constants, then
   0-resub wires over the whole pool in ascending id order, then 1-resub
   pairs over the ranked shortlist (AND, OR, XOR, XNOR families with all
   operand polarities), then budget-gated 2-resub triples. The order is
   a function of (network, stimulus) only, which the byte-identity
   discipline rests on. *)
let shapes_for ~max_triples ~pool ~ranked =
  let bools = [ true; false ] in
  let acc = ref [] in
  let push sh est = acc := { c_shape = sh; c_est = est } :: !acc in
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
          List.iter
            (fun ph -> push (Sop [ [ lit g pg; lit h ph ] ]) 2)
            bools)
        bools;
      List.iter
        (fun pg ->
          List.iter
            (fun ph -> push (Sop [ [ lit g pg ]; [ lit h ph ] ]) 2)
            bools)
        bools;
      push (Sop [ [ lit g true; lit h false ]; [ lit g false; lit h true ] ]) 4;
      push (Sop [ [ lit g true; lit h true ]; [ lit g false; lit h false ] ]) 4
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
        (* lone ∧ (pair ∨ pair) and lone ∨ (pair ∧ pair), each of the
           three nodes taking the lone role *)
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
                      push (Sop [ [ lit lone pl ]; [ lit o1 p1; lit o2 p2 ] ]) 3)
                    bools)
                bools)
            bools
        in
        arrange g h q;
        arrange h g q;
        arrange q g h;
        (* 2:1 multiplexers s·o1 + s'·o2 — the strongest two-level
           shape in practice; every node takes the select role, both
           branch orders, both branch polarities (select polarity is
           covered by swapping the branches). *)
        let mux s o1 o2 =
          List.iter
            (fun p1 ->
              List.iter
                (fun p2 ->
                  push
                    (Sop
                       [
                         [ lit s true; lit o1 p1 ];
                         [ lit s false; lit o2 p2 ];
                       ])
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
  (* Disjoint-pair quads over the very top of the ranking: g·h + q·r,
     positive-phase products only (the mixed-polarity space is covered
     well enough by the triples above to not be worth the blow-up). *)
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
                      (Sop
                         [
                           [ lit g true; lit h ph ];
                           [ lit q true; lit r pr ];
                         ])
                      4;
                    push
                      (Sop
                         [
                           [ lit g false; lit h ph ];
                           [ lit q true; lit r pr ];
                         ])
                      4)
                  bools)
              bools
          end
        done
      done
    done
  done;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Exact validation oracle                                             *)
(* ------------------------------------------------------------------ *)

(* Global BDDs over the primary inputs, cached per network revision: the
   manager is rebuilt wholesale when the network mutates, which both
   invalidates every cached node function and bounds the unique table.
   The care BDD is the complement of the EXCDC cube union (cubes naming
   unresolvable inputs are dropped — conservative, like the mask). *)
type oracle = {
  o_net : Network.t;
  o_dc : Dont_care.t option;
  mutable o_man : Bdd.man;
  mutable o_nodes : (Network.node_id, Bdd.t) Hashtbl.t;
  mutable o_care : Bdd.t;
  mutable o_rev : int;
}

let ora_care man net dc =
  match dc with
  | Some dc when not (Dont_care.is_empty dc) ->
    let pos = Hashtbl.create 17 in
    List.iteri
      (fun i id -> Hashtbl.replace pos (Network.name net id) i)
      (Network.inputs net);
    let forbidden =
      List.fold_left
        (fun forb cube ->
          let rec build b = function
            | [] -> Some b
            | (nm, ph) :: tl -> (
              match Hashtbl.find_opt pos nm with
              | None -> None
              | Some i ->
                build
                  (Bdd.band man b
                     (if ph then Bdd.var man i else Bdd.nvar man i))
                  tl)
          in
          match build (Bdd.btrue man) cube with
          | None -> forb
          | Some b -> Bdd.bor man forb b)
        (Bdd.bfalse man) (Dont_care.excdc dc)
    in
    Bdd.not_ man forbidden
  | _ -> Bdd.btrue man

let ora_create ?dc net =
  let man = Bdd.create () in
  {
    o_net = net;
    o_dc = dc;
    o_man = man;
    o_nodes = Hashtbl.create 67;
    o_care = ora_care man net dc;
    o_rev = Network.revision net;
  }

let ora_sync o =
  if o.o_rev <> Network.revision o.o_net then begin
    let man = Bdd.create () in
    o.o_man <- man;
    o.o_nodes <- Hashtbl.create 67;
    o.o_care <- ora_care man o.o_net o.o_dc;
    o.o_rev <- Network.revision o.o_net
  end

let ora_node o id =
  match Hashtbl.find_opt o.o_nodes id with
  | Some b -> b
  | None ->
    let b = Of_network.node o.o_man o.o_net id in
    Hashtbl.replace o.o_nodes id b;
    b

let ora_shape o = function
  | Const b -> if b then Bdd.btrue o.o_man else Bdd.bfalse o.o_man
  | Sop cubes ->
    List.fold_left
      (fun disj cube ->
        Bdd.bor o.o_man disj
          (List.fold_left
             (fun conj l ->
               let b = ora_node o l.l_node in
               Bdd.band o.o_man conj
                 (if l.l_pos then b else Bdd.not_ o.o_man b))
             (Bdd.btrue o.o_man) cube))
      (Bdd.bfalse o.o_man) cubes

(* [None] when the shape equals [f] on the whole care set; otherwise a
   distinguishing input assignment (inputs order, unmentioned inputs
   false). The miter is canonical for the function, so the extracted
   counterexample is the same whatever manager history produced it —
   workers and the sequential driver agree on it. *)
let validate o ~f shape =
  ora_sync o;
  let miter =
    Bdd.band o.o_man o.o_care
      (Bdd.bxor o.o_man (ora_node o f) (ora_shape o shape))
  in
  if Bdd.is_false o.o_man miter then None
  else begin
    let n = List.length (Network.inputs o.o_net) in
    let assign = Array.make n false in
    (match Bdd.any_sat o.o_man miter with
    | Some lits ->
      List.iter (fun (v, ph) -> if v >= 0 && v < n then assign.(v) <- ph) lits
    | None -> ());
    Some assign
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run ?(max_divisors = default_max_divisors)
    ?(max_triples = default_max_triples) ?(max_passes = 4) ?(jobs = 1)
    ?(sim_seed = Signature.default_seed) ?(sim_words = Signature.default_words)
    ?(use_memo = true) ?deadline_at ?(trace = Trace.disabled) ?counters ?dc net
    =
  if sim_words <= 0 then invalid_arg "Kresub.run: sim_words must be positive";
  let counters =
    match counters with Some c -> c | None -> Counters.create ()
  in
  let cache = Fanin_cache.create net in
  let sim = sim_create ~words:sim_words ~seed:sim_seed ?dc net in
  let oracle = ora_create ?dc net in
  (* Counterexamples live for the whole run and only ever grow, and each
     occupies its own stimulus row: once a spurious candidate has been
     distinguished it stays distinguished, so it is never proposed for
     any dividend again. [gen] keys the memo on this history. *)
  let cex = ref [] in
  let gen = ref 0 in
  let substitutions = ref 0 in
  (* One constructive scan of dividend [f]. [live] distinguishes the
     sequential driver (refinements are applied to the shared
     counterexample list) from a worker on a snapshot (a would-be
     refinement only yields the verdict; the driver re-executes the scan
     for real). [speculating] buffers Dirty events around real attempts
     so a validated-but-no-gain rollback moves no stamps. *)
  let scan_once net ~cache ~sim ~oracle ~counters:c ~speculating ~live ~cex f
      =
    sim_refresh sim ~cex:!cex;
    let cur_lits = Lit_count.node_factored net f in
    let shapes =
      Counters.timed c `Filter @@ fun () ->
      let sf = sim_value sim f in
      let pool =
        List.filter
          (fun d ->
            d <> f
            && Network.mem net d
            && not (Fanin_cache.depends_on cache d ~on:f))
          (List.sort Int.compare (Network.node_ids net))
      in
      let score d =
        let sd = sim_value sim d in
        let agree = ref 0 and disagree = ref 0 in
        for w = 0 to sim.words - 1 do
          let x = Int64.logxor sf.(w) sd.(w) in
          disagree := !disagree + popcount64 (Int64.logand sim.care.(w) x);
          agree :=
            !agree + popcount64 (Int64.logand sim.care.(w) (Int64.lognot x))
        done;
        max !agree !disagree
      in
      let ranked =
        let scored = List.map (fun d -> (score d, d)) pool in
        let sorted =
          List.sort
            (fun (s1, d1) (s2, d2) ->
              if s1 <> s2 then Int.compare s2 s1 else Int.compare d1 d2)
            scored
        in
        Array.of_list
          (List.filteri (fun i _ -> i < max_divisors) (List.map snd sorted))
      in
      shapes_for ~max_triples ~pool ~ranked
      @ absorption_shapes sim ~f ~sf ~ranked ~cur_lits
    in
    let sf = sim_value sim f in
    let rec try_shapes = function
      | [] -> Scheduler.Quiet
      | cand :: tl ->
        if
          cand.c_est >= cur_lits
          || not
               (Counters.timed c `Filter (fun () ->
                    eq_masked sim.care sf (shape_sig sim cand.c_shape)))
        then try_shapes tl
        else begin
          Counters.add c.Counters.kresub_candidates 1;
          match
            Counters.timed c `Validate (fun () ->
                validate oracle ~f cand.c_shape)
          with
          | Some assign ->
            if List.length !cex < sim.words * 64 then begin
              if live then begin
                cex := !cex @ [ assign ];
                incr gen;
                Counters.add c.Counters.kresub_refinements 1
              end;
              Scheduler.Refined
            end
            else try_shapes tl
          | None ->
            Counters.add c.Counters.kresub_validated 1;
            let landed =
              speculating (fun () ->
                  let before_cover = Network.cover net f in
                  let before_fanins = Network.fanins net f in
                  match Lift.set_cover net f (shape_cover cand.c_shape) with
                  | exception Network.Cyclic _ -> false
                  | () ->
                    if Lit_count.node_factored net f < cur_lits then true
                    else begin
                      Network.set_function net f ~fanins:before_fanins
                        before_cover;
                      false
                    end)
            in
            if landed then Scheduler.Committed else try_shapes tl
        end
    in
    try_shapes shapes
  in
  let scan_to_quiescence net ~cache ~sim ~oracle ~counters:c ~speculating
      ~live ~cex f =
    let rec go restarts =
      match scan_once net ~cache ~sim ~oracle ~counters:c ~speculating ~live
              ~cex f
      with
      | Scheduler.Refined when live && restarts < max_restarts ->
        go (restarts + 1)
      | outcome -> outcome
    in
    go 0
  in
  let client memo =
    (* The whole scan is one memo unit: its dividend entry is keyed on
       the refinement generation. *)
    let miss c =
      if Option.is_some memo then Counters.add c.Counters.memo_misses 1
    in
    let speculating real =
      match memo with
      | Some m ->
        Dirty.speculating (Division_memo.dirty m) ~committed:Fun.id real
      | None -> real ()
    in
    let scan f =
      miss counters;
      let outcome =
        scan_to_quiescence net ~cache ~sim ~oracle ~counters ~speculating
          ~live:true ~cex f
      in
      if outcome = Scheduler.Committed then begin
        incr substitutions;
        Counters.add counters.Counters.substitutions 1
      end;
      outcome
    in
    (* Workers never touch the shared counterexample list: a would-be
       refinement only yields the verdict, and the scheduler re-runs
       the scan live. *)
    let speculate snap wc f =
      miss wc;
      ( scan_to_quiescence snap ~cache:(Fanin_cache.create snap)
          ~sim:(sim_create ~words:sim_words ~seed:sim_seed ?dc snap)
          ~oracle:(ora_create ?dc snap) ~counters:wc
          ~speculating:(fun real -> real ())
          ~live:false ~cex:(ref !cex) f,
        Scheduler.Unbounded )
    in
    { Scheduler.bounded = false; scan; speculate }
  in
  Scheduler.run ~driver:"kresub"
    ~fields:[ ("words", Trace.Int sim_words) ]
    ~gen:(fun () -> !gen)
    ~pass_work:(fun c -> c.Counters.kresub_candidates)
    ~jobs ~use_memo ~max_passes ?deadline_at ~trace ~counters net client;
  !substitutions
