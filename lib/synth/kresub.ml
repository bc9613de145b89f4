open Twolevel
module Network = Logic_network.Network
module Fanin_cache = Logic_network.Fanin_cache
module Dont_care = Logic_network.Dont_care
module Scheduler = Booldiv.Scheduler
module Lit_count = Logic_network.Lit_count
module Signature = Logic_sim.Signature
module Bdd = Robdd.Bdd
module Of_network = Robdd.Of_network
module Counters = Rar_util.Counters
module Trace = Rar_util.Trace

let default_max_divisors = 24

let default_max_triples = 8

(* A dividend whose every failed validation spawns a counterexample could
   in principle refine forever on pathological don't-care interactions;
   after this many restarts the dividend is abandoned for the pass. *)
let max_restarts = 16

(* ------------------------------------------------------------------ *)
(* Candidate shapes                                                    *)
(* ------------------------------------------------------------------ *)

type lit = { l_node : Network.node_id; l_pos : bool }

(* A candidate is a tiny SOP over existing nodes — it is committed as a
   lifted cover through {!Lift.set_cover}, so a kresub rewrite never
   allocates a node id (the id burn of every attempt is zero). *)
type shape = Const of bool | Sop of lit list list

let lit n p = { l_node = n; l_pos = p }

(* The signatures one scan reads (the pool's, which hold the ranked
   divisors and [f]'s fanins), resolved once into arrays indexed by
   node id: [sigs] ([||] for ids outside the pool) and [w0], word 0 of
   each as a native int. [Int64.to_int] keeps the low 63 bits, and
   [land]/[lor]/[lnot] act on every bit alone, so a shape's word 0
   folded over [w0] is the low 63 bits of its true word 0. Agreement on
   those bits is therefore necessary for agreement on every word, which
   is what lets the enumeration below test a shape before building it. *)
type table = {
  sim : Signature.t;
  sigs : int64 array array;
  w0 : int array;
  words : int;
  sf : int64 array;
  sf0 : int;
  care : int64 array option;
  care0 : int;  (** low 63 bits of the care mask's word 0 *)
}

let table net sim ~f ~pool =
  let limit = Network.id_limit net in
  let sigs = Array.make limit [||] and w0 = Array.make limit 0 in
  let resolve d =
    let v = Signature.signature sim d in
    sigs.(d) <- v;
    w0.(d) <- Int64.to_int v.(0)
  in
  List.iter resolve pool;
  let sf = Signature.signature sim f in
  let care = Signature.care_mask sim in
  {
    sim;
    sigs;
    w0;
    words = Signature.words sim;
    sf;
    sf0 = Int64.to_int sf.(0);
    care;
    care0 = (match care with None -> -1 | Some m -> Int64.to_int m.(0));
  }

(* The word-0 test: [x] agrees with the dividend on every care row among
   the low 63 bits of word 0. *)
let hit tb x = (x lxor tb.sf0) land tb.care0 = 0

let phase p x = if p then x else lnot x

let care_word tb w =
  match tb.care with None -> Int64.minus_one | Some m -> m.(w)

(* Word [w] of a shape's signature, folded without closures. *)
let rec cube_word tb w acc = function
  | [] -> acc
  | l :: tl ->
    let v = tb.sigs.(l.l_node).(w) in
    cube_word tb w
      (Int64.logand acc (if l.l_pos then v else Int64.lognot v))
      tl

let rec sop_word tb w acc = function
  | [] -> acc
  | cube :: tl ->
    sop_word tb w (Int64.logor acc (cube_word tb w Int64.minus_one cube)) tl

let shape_word tb shape w =
  match shape with
  | Const b -> if b then Int64.minus_one else 0L
  | Sop cubes -> sop_word tb w 0L cubes

let shape_sig tb shape = Array.init tb.words (shape_word tb shape)

(* The shape's signature equals the dividend's on every care row, one
   word at a time. *)
let shape_matches tb shape =
  let rec go w =
    w >= tb.words
    || Int64.equal
         (Int64.logand (care_word tb w)
            (Int64.logxor tb.sf.(w) (shape_word tb shape w)))
         0L
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
   candidate. Each subset test runs on word 0's low 63 bits first and
   reads the full signatures only when those pass. *)
let absorption_shapes net tb ~f ~ranked ~cur_lits =
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
    let sigs = Array.map (fun c -> shape_sig tb (Sop [ c ])) cubes in
    let c0 = Array.map (fun s -> Int64.to_int s.(0)) sigs in
    let cube_w0 c =
      List.fold_left (fun x l -> x land phase l.l_pos tb.w0.(l.l_node)) (-1) c
    in
    let old_sop =
      Array.fold_left (fun n c -> n + List.length c) 0 cubes
    in
    let acc = ref [] in
    Array.iter
      (fun d ->
        List.iter
          (fun pd ->
            let d0 = phase pd tb.w0.(d) in
            let dsig =
              let v = tb.sigs.(d) in
              Array.init tb.words (fun w ->
                  if pd then v.(w) else Int64.lognot v.(w))
            in
            let absorbable =
              Array.mapi
                (fun i c ->
                  c0.(i) land lnot d0 land tb.care0 = 0
                  && Signature.subset_on_care tb.sim sigs.(i) dsig
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
                        if
                          d0 land cube_w0 q' land lnot tb.sf0 land tb.care0
                          = 0
                          && Signature.subset_on_care tb.sim
                               (shape_sig tb (Sop [ lit d pd :: q' ]))
                               tb.sf
                        then q := q')
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
                (* Estimated at one literal under the dividend's count. *)
                if lits < old_sop && cur_lits > 1 then acc := Sop dedup :: !acc
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
   discipline rests on. Only the shapes that match the dividend's
   signature are listed. A shape estimated at [cur_lits] literals or
   more could never earn a gain, so its family is skipped outright;
   otherwise the shape's word 0 is folded on native ints and the shape
   is built, and compared on every word, only when that word passes
   {!hit}. Polarity loops run [true] before [false] ([p = 0] is
   [true]). *)
let shapes_for tb ~max_triples ~pool ~ranked ~cur_lits =
  let acc = ref [] in
  let add sh = if shape_matches tb sh then acc := sh :: !acc in
  if 0 < cur_lits then begin
    if hit tb 0 then add (Const false);
    if hit tb (-1) then add (Const true)
  end;
  if 1 < cur_lits then
    List.iter
      (fun d ->
        let a = tb.w0.(d) in
        if hit tb a then add (Sop [ [ lit d true ] ]);
        if hit tb (lnot a) then add (Sop [ [ lit d false ] ]))
      pool;
  let n = Array.length ranked in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let g = ranked.(i) and h = ranked.(j) in
      let a = tb.w0.(g) and b = tb.w0.(h) in
      if 2 < cur_lits then begin
        for p = 0 to 3 do
          let pg = p < 2 and ph = p land 1 = 0 in
          if hit tb (phase pg a land phase ph b) then
            add (Sop [ [ lit g pg; lit h ph ] ])
        done;
        for p = 0 to 3 do
          let pg = p < 2 and ph = p land 1 = 0 in
          if hit tb (phase pg a lor phase ph b) then
            add (Sop [ [ lit g pg ]; [ lit h ph ] ])
        done
      end;
      if 4 < cur_lits then begin
        if hit tb (a lxor b) then
          add
            (Sop [ [ lit g true; lit h false ]; [ lit g false; lit h true ] ]);
        if hit tb (lnot (a lxor b)) then
          add
            (Sop [ [ lit g true; lit h true ]; [ lit g false; lit h false ] ])
      end
    done
  done;
  let m = min n max_triples in
  (* lone ∧ (pair ∨ pair) and lone ∨ (pair ∧ pair), each of the three
     nodes taking the lone role *)
  let arrange lone o1 o2 =
    let l = tb.w0.(lone) and a = tb.w0.(o1) and b = tb.w0.(o2) in
    for p = 0 to 7 do
      let pl = p < 4 and p1 = p land 2 = 0 and p2 = p land 1 = 0 in
      let xl = phase pl l and x1 = phase p1 a and x2 = phase p2 b in
      if hit tb (xl land (x1 lor x2)) then
        add (Sop [ [ lit lone pl; lit o1 p1 ]; [ lit lone pl; lit o2 p2 ] ]);
      if hit tb (xl lor (x1 land x2)) then
        add (Sop [ [ lit lone pl ]; [ lit o1 p1; lit o2 p2 ] ])
    done
  in
  (* 2:1 multiplexers s·o1 + s'·o2 — the strongest two-level shape in
     practice; every node takes the select role, both branch orders,
     both branch polarities (select polarity is covered by swapping the
     branches). *)
  let mux s o1 o2 =
    let x = tb.w0.(s) and a = tb.w0.(o1) and b = tb.w0.(o2) in
    for p = 0 to 3 do
      let p1 = p < 2 and p2 = p land 1 = 0 in
      if hit tb ((x land phase p1 a) lor (lnot x land phase p2 b)) then
        add (Sop [ [ lit s true; lit o1 p1 ]; [ lit s false; lit o2 p2 ] ])
    done
  in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      for k = j + 1 to m - 1 do
        let g = ranked.(i) and h = ranked.(j) and q = ranked.(k) in
        if 3 < cur_lits then begin
          let a = tb.w0.(g) and b = tb.w0.(h) and c = tb.w0.(q) in
          for p = 0 to 7 do
            let pg = p < 4 and ph = p land 2 = 0 and pq = p land 1 = 0 in
            let xg = phase pg a and xh = phase ph b and xq = phase pq c in
            if hit tb (xg land xh land xq) then
              add (Sop [ [ lit g pg; lit h ph; lit q pq ] ]);
            if hit tb (xg lor xh lor xq) then
              add (Sop [ [ lit g pg ]; [ lit h ph ]; [ lit q pq ] ])
          done;
          arrange g h q;
          arrange h g q;
          arrange q g h
        end;
        if 4 < cur_lits then begin
          mux g h q;
          mux g q h;
          mux h g q;
          mux h q g;
          mux q g h;
          mux q h g
        end
      done
    done
  done;
  (* Disjoint-pair quads over the very top of the ranking: g·h + q·r,
     positive-phase products only (the mixed-polarity space is covered
     well enough by the triples above to not be worth the blow-up). *)
  let m4 = min n (max_triples - 2) in
  if 4 < cur_lits then
    for i = 0 to m4 - 1 do
      for j = i + 1 to m4 - 1 do
        for k = i + 1 to m4 - 1 do
          for l = k + 1 to m4 - 1 do
            if k <> j && l <> j && k > i then begin
              let g = ranked.(i) and h = ranked.(j) in
              let q = ranked.(k) and r = ranked.(l) in
              let a = tb.w0.(g) and b = tb.w0.(h) in
              let c = tb.w0.(q) and e = tb.w0.(r) in
              for p = 0 to 3 do
                let ph = p < 2 and pr = p land 1 = 0 in
                let qr = c land phase pr e in
                let xh = phase ph b in
                if hit tb ((a land xh) lor qr) then
                  add (Sop [ [ lit g true; lit h ph ]; [ lit q true; lit r pr ] ]);
                if hit tb ((lnot a land xh) lor qr) then
                  add
                    (Sop [ [ lit g false; lit h ph ]; [ lit q true; lit r pr ] ])
              done
            end
          done
        done
      done
    done;
  List.rev !acc

(* The signature-matched proposals for dividend [f], in proposal order:
   the pool is every other live node outside [f]'s transitive fanout,
   ranked by best-phase agreement with [f] (ties by id). *)
let proposals_for net ~cache ~sim ~max_divisors ~max_triples ~cur_lits f =
  let pool =
    List.filter
      (fun d ->
        d <> f
        && Network.mem net d
        && not (Fanin_cache.depends_on cache d ~on:f))
      (List.sort Int.compare (Network.node_ids net))
  in
  let tb = table net sim ~f ~pool in
  let ranked =
    let scored =
      List.map (fun d -> (Signature.agreement sim tb.sf tb.sigs.(d), d)) pool
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
  (* A scan ends at its first commit or refinement, and a rolled-back
     attempt restores every signature, so which shapes match the
     dividend's signature cannot change while the list is consumed:
     filtering them here, as they are built, keeps the proposal order
     and lets the mismatches die young. *)
  shapes_for tb ~max_triples ~pool ~ranked ~cur_lits
  @ List.filter (shape_matches tb)
      (absorption_shapes net tb ~f ~ranked ~cur_lits)

let proposals ?(max_divisors = default_max_divisors)
    ?(max_triples = default_max_triples) sim net f =
  List.map shape_cover
    (proposals_for net ~cache:(Fanin_cache.create net) ~sim ~max_divisors
       ~max_triples ~cur_lits:(Lit_count.node_factored net f) f)

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
   counterexample is the same whatever manager history produced it. *)
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
    ?(max_triples = default_max_triples) ?(max_passes = 4)
    ?(sim_seed = Signature.default_seed) ?(sim_words = Signature.default_words)
    ?deadline_at ?(trace = Trace.disabled) ?counters ?dc net
    =
  if sim_words <= 0 then invalid_arg "Kresub.run: sim_words must be positive";
  let counters =
    match counters with Some c -> c | None -> Counters.create ()
  in
  let cache = Fanin_cache.create net in
  (* Counterexample rows live for the whole run and only ever grow, each
     in its own stimulus row: once a spurious candidate has been
     distinguished it stays distinguished, so it is never proposed for
     any dividend again. *)
  let sim = Signature.create ~seed:sim_seed ~words:sim_words ?dc net in
  Fun.protect ~finally:(fun () -> Signature.detach sim) @@ fun () ->
  let oracle = ora_create ?dc net in
  let substitutions = ref 0 in
  (* One constructive scan of dividend [f]: [`Refined] when a
     counterexample sharpened the signatures before anything landed. *)
  let scan_once f =
    let cur_lits = Lit_count.node_factored net f in
    let shapes =
      Counters.timed counters `Filter @@ fun () ->
      proposals_for net ~cache ~sim ~max_divisors ~max_triples ~cur_lits f
    in
    let rec try_shapes = function
      | [] -> `Quiet
      | shape :: tl -> (
        Counters.add counters.Counters.kresub_candidates 1;
        match
          Counters.timed counters `Validate (fun () ->
              validate oracle ~f shape)
        with
        | Some assign ->
          if List.length (Signature.rows sim) < 64 * sim_words then begin
            Signature.refine sim assign;
            Counters.add counters.Counters.kresub_refinements 1;
            `Refined
          end
          else try_shapes tl
        | None ->
          Counters.add counters.Counters.kresub_validated 1;
          let before_cover = Network.cover net f in
          let before_fanins = Network.fanins net f in
          let landed =
            match Lift.set_cover net f (shape_cover shape) with
            | exception Network.Cyclic _ -> false
            | () ->
              if Lit_count.node_factored net f < cur_lits then true
              else begin
                Network.set_function net f ~fanins:before_fanins before_cover;
                false
              end
          in
          if landed then `Committed else try_shapes tl)
    in
    try_shapes shapes
  in
  let scan f =
    let rec go restarts =
      match scan_once f with
      | `Refined when restarts < max_restarts -> go (restarts + 1)
      | outcome -> outcome
    in
    let committed = go 0 = `Committed in
    if committed then begin
      incr substitutions;
      Counters.add counters.Counters.substitutions 1
    end;
    committed
  in
  Scheduler.run ~driver:"kresub"
    ~fields:[ ("words", Trace.Int sim_words) ]
    ~pass_work:(fun c -> c.Counters.kresub_candidates)
    ~max_passes ?deadline_at ~trace ~counters net scan;
  !substitutions
