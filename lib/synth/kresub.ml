open Twolevel
module Network = Logic_network.Network
module Lift = Logic_network.Lift
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

(* Buffers indexed by node id, allocated once per run (or per
   {!proposals} call), so that a scan allocates no id-indexed array:
   [b_sigs]/[b_w0] are overwritten for each scan's pool, and [b_tfo]
   holds the TFO(f) of the last scan. *)
type buffers = {
  b_sigs : int64 array array;
  b_w0 : int array;
  b_tfo : Network.cone;
}

let buffers net =
  let limit = Network.id_limit net in
  {
    b_sigs = Array.make limit [||];
    b_w0 = Array.make limit 0;
    b_tfo = Network.cone net;
  }

(* The signatures one scan reads (the pool's, which hold the ranked
   divisors and [f]'s fanins), resolved once into the buffers: [sigs],
   and [w0], word 0 of each as a native int. An id outside the pool
   keeps a stale entry, which no test reads. [Int64.to_int] keeps the
   low 63 bits, and [land]/[lor]/[lnot] act on every bit alone, so a
   shape's word 0 folded over [w0] is the low 63 bits of its true word
   0. Agreement on those bits is therefore necessary for agreement on
   every word, which is what lets the enumeration below test a shape
   before building it. *)
type table = {
  sigs : int64 array array;
  w0 : int array;
  words : int;
  sf : int64 array;
  sf0 : int;
  care : int64 array option;
  care0 : int;  (** low 63 bits of the care mask's word 0 *)
}

let table bufs sim ~f ~pool =
  let sigs = bufs.b_sigs and w0 = bufs.b_w0 in
  let resolve d =
    let v = Signature.signature sim d in
    sigs.(d) <- v;
    w0.(d) <- Int64.to_int v.(0)
  in
  Array.iter resolve pool;
  let sf = Signature.signature sim f in
  let care = Signature.care_mask sim in
  {
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

let lit_word tb l w =
  let v = tb.sigs.(l.l_node).(w) in
  if l.l_pos then v else Int64.lognot v

(* Word [w] of a shape's signature, folded without closures. *)
let rec cube_word tb w acc = function
  | [] -> acc
  | l :: tl -> cube_word tb w (Int64.logand acc (lit_word tb l w)) tl

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

(* No care row holds the cube whose signature is [csig] without the
   literal [dl]: word by word, so no signature of [dl] is built. *)
let cube_inside_lit tb csig dl =
  let rec go w =
    w >= tb.words
    || Int64.equal
         (Int64.logand (care_word tb w)
            (Int64.logand csig.(w) (Int64.lognot (lit_word tb dl w))))
         0L
       && go (w + 1)
  in
  go 0

(* No care row holds [dl · q] outside the dividend, word by word. *)
let lit_cube_inside_f tb dl q =
  let rec go w =
    w >= tb.words
    || Int64.equal
         (Int64.logand (care_word tb w)
            (Int64.logand
               (cube_word tb w (lit_word tb dl w) q)
               (Int64.lognot tb.sf.(w))))
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

(* Drops every cube equal, as a set of literals, to an earlier one. *)
let merge_cubes cubes =
  let key c =
    List.sort Int.compare
      (List.map (fun l -> (2 * l.l_node) + Bool.to_int l.l_pos) c)
  in
  let rec go seen = function
    | [] -> []
    | c :: tl ->
      let k = key c in
      if List.exists (List.equal Int.equal k) seen then go seen tl
      else c :: go (k :: seen) tl
  in
  go [] cubes

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
   reads the full signatures, word by word, only when those pass; only a
   cube's own signature is ever built, once, when a test first needs
   it. *)
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
  (* Every shape is estimated at one literal under the dividend's count,
     so a one-literal dividend gets none. *)
  if nc < 1 || nc > 32 || cur_lits <= 1 then []
  else begin
    let cube_w0 c =
      List.fold_left (fun x l -> x land phase l.l_pos tb.w0.(l.l_node)) (-1) c
    in
    let c0 = Array.map cube_w0 cubes in
    let sigs = Array.map (fun c -> lazy (shape_sig tb (Sop [ c ]))) cubes in
    (* Which cubes the current divisor phase absorbs. *)
    let absorbable = Array.make nc false in
    let old_sop =
      Array.fold_left (fun n c -> n + List.length c) 0 cubes
    in
    let acc = ref [] in
    Array.iter
      (fun d ->
        List.iter
          (fun pd ->
            let dl = lit d pd in
            let d0 = phase pd tb.w0.(d) in
            let any = ref false in
            Array.iteri
              (fun i c ->
                let a =
                  c0.(i) land lnot d0 land tb.care0 = 0
                  && (not (List.exists (fun l -> l.l_node = d) c))
                  && cube_inside_lit tb (Lazy.force sigs.(i)) dl
                in
                absorbable.(i) <- a;
                if a then any := true)
              cubes;
            if !any then begin
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
                        let q' =
                          List.filter (fun l' -> l'.l_node <> l.l_node) !q
                        in
                        if
                          d0 land cube_w0 q' land lnot tb.sf0 land tb.care0
                          = 0
                          && lit_cube_inside_f tb dl q'
                        then q := q')
                      c;
                    if List.length !q < List.length c then begin
                      changed := true;
                      rebuilt := (dl :: !q) :: !rebuilt
                    end
                    else rebuilt := c :: !rebuilt
                  end
                  else rebuilt := c :: !rebuilt)
                cubes;
              if !changed then begin
                let merged = merge_cubes (List.rev !rebuilt) in
                let lits =
                  List.fold_left (fun n c -> n + List.length c) 0 merged
                in
                if lits < old_sop then acc := Sop merged :: !acc
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
    Array.iter
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

(* The pool of the last walk of [b_tfo]: every live node outside
   TFO(f), in ascending id order. *)
let pool_of net bufs =
  let acc = ref [] in
  for d = Network.id_limit net - 1 downto 0 do
    if (not (Network.in_cone bufs.b_tfo d)) && Network.mem net d then
      acc := d :: !acc
  done;
  Array.of_list !acc

(* The signature-matched proposals for dividend [f], in proposal order:
   the pool ranked by best-phase agreement with [f] (ties in pool
   order, which is by id). *)
let proposals_for net bufs ~sim ~max_divisors ~max_triples ~cur_lits ~pool f
    =
  let tb = table bufs sim ~f ~pool in
  let ranked =
    Signature.rank ~k:max_divisors
      ~score:(fun d -> Signature.agreement sim tb.sf tb.sigs.(d))
      pool
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
  let bufs = buffers net in
  ignore (Network.mark_fanout net bufs.b_tfo [ f ]);
  List.map shape_cover
    (proposals_for net bufs ~sim ~max_divisors ~max_triples
       ~cur_lits:(Lit_count.node_factored net f)
       ~pool:(pool_of net bufs) f)

(* ------------------------------------------------------------------ *)
(* Exact validation oracle                                             *)
(* ------------------------------------------------------------------ *)

(* Global BDDs over the primary inputs, one table per network revision:
   the first validation after a mutation builds a fresh manager and
   every node's function in one topological sweep, which both
   invalidates every cached node function and bounds the unique table.
   The care BDD is the complement of the union of the EXCDC cubes bound
   to input positions (cubes naming unresolvable inputs are dropped —
   conservative, like the mask). *)
type tables = {
  t_rev : int;
  t_man : Bdd.man;
  t_nodes : (Network.node_id, Bdd.t) Hashtbl.t;
  t_care : Bdd.t;
}

type oracle = {
  o_net : Network.t;
  o_dc : Dont_care.t;
  mutable o_tables : tables option;
}

(* BDD variable [i] is the [i]-th primary input ({!Of_network.all}). *)
let ora_care man net dc =
  let position name =
    Option.bind (Network.find_input net name) (fun id ->
        List.find_index (Int.equal id) (Network.inputs net))
  in
  let forbidden =
    List.fold_left
      (fun forb cube ->
        Bdd.bor man forb
          (List.fold_left
             (fun b (i, ph) ->
               Bdd.band man b (if ph then Bdd.var man i else Bdd.nvar man i))
             (Bdd.btrue man) cube))
      (Bdd.bfalse man)
      (Dont_care.bind dc position)
  in
  Bdd.not_ man forbidden

let oracle ?(dc = Dont_care.empty) net =
  { o_net = net; o_dc = dc; o_tables = None }

let ora_tables o =
  let rev = Network.revision o.o_net in
  match o.o_tables with
  | Some t when t.t_rev = rev -> t
  | _ ->
    let man = Bdd.create () in
    let t =
      {
        t_rev = rev;
        t_man = man;
        t_nodes = Of_network.all man o.o_net;
        t_care = ora_care man o.o_net o.o_dc;
      }
    in
    o.o_tables <- Some t;
    t

let ora_cover t cover =
  List.fold_left
    (fun disj cube ->
      Bdd.bor t.t_man disj
        (Cube.fold_literals
           (fun conj l ->
             let b = Hashtbl.find t.t_nodes (Literal.var l) in
             Bdd.band t.t_man conj
               (if Literal.is_pos l then b else Bdd.not_ t.t_man b))
           (Bdd.btrue t.t_man) cube))
    (Bdd.bfalse t.t_man) (Cover.cubes cover)

(* [None] when [cover] equals [f] on the whole care set; otherwise a
   distinguishing input assignment (inputs order, unmentioned inputs
   false). The miter is canonical for the function, so the extracted
   counterexample is the same whatever manager history produced it. *)
let validate o ~f cover =
  let t = ora_tables o in
  let miter =
    Bdd.band t.t_man t.t_care
      (Bdd.bxor t.t_man (Hashtbl.find t.t_nodes f) (ora_cover t cover))
  in
  if Bdd.is_false t.t_man miter then None
  else begin
    let n = List.length (Network.inputs o.o_net) in
    let assign = Array.make n false in
    (match Bdd.any_sat t.t_man miter with
    | Some lits ->
      List.iter (fun (v, ph) -> if v >= 0 && v < n then assign.(v) <- ph) lits
    | None -> ());
    Some assign
  end

let oracle_table o =
  let t = ora_tables o in
  (t.t_man, t.t_nodes)

(* A validated cover equals [f] on the whole care set. When no EXCDC
   cube binds, that is every input assignment, so the commit leaves
   every node's global function, and the table current before it, as
   they were: the table is restamped to the new revision. When one
   binds, [f] may change off the care set, and so may its fanouts, so
   the next validation rebuilds. *)
let commit o ~f ~below cover =
  let rev = Network.revision o.o_net in
  Lift.set_cover_if_cheaper o.o_net f ~below cover
  && begin
       (match o.o_tables with
       | Some t when t.t_rev = rev && Bdd.equal t.t_care (Bdd.btrue t.t_man)
         ->
         o.o_tables <- Some { t with t_rev = Network.revision o.o_net }
       | _ -> ());
       true
     end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* What a scan of [f] reads that a commit elsewhere could move, as it
   stood at [f]'s last [`Quiet] scan: the counterexample row count,
   [f]'s cover (compared physically) and fanins, and TFO(f)'s ids. *)
type quiet_key = {
  q_rows : int;
  q_cover : Cover.t;
  q_fanins : Network.node_id array;
  q_tfo : Network.node_id array;
}

let run ?(sim_seed = Signature.default_seed)
    ?(sim_words = Signature.default_words) ?deadline_at
    ?(trace = Trace.disabled) ?counters ?dc net =
  if sim_words <= 0 then invalid_arg "Kresub.run: sim_words must be positive";
  let counters =
    match counters with Some c -> c | None -> Counters.create ()
  in
  (* Counterexample rows live for the whole run and only ever grow, each
     in its own stimulus row: once a spurious candidate has been
     distinguished it stays distinguished, so it is never proposed for
     any dividend again. *)
  let sim = Signature.create ~seed:sim_seed ~words:sim_words ?dc net in
  Fun.protect ~finally:(fun () -> Signature.detach sim) @@ fun () ->
  let oracle = oracle ?dc net in
  let substitutions = ref 0 and rows = ref 0 in
  (* A scan reads care-masked signatures, care-set functions (the
     miter is [care ∧ (f ⊕ shape)]), the pool, and [f]'s cover and
     fanins. A commit is validated equal to its node on the care set,
     so it moves no node's care-set function, and the run never adds or
     removes a node, so TFO(f) fixes the pool: a scan whose key equals
     [f]'s last quiet one repeats it, and is answered [`Quiet]. *)
  let quiet = Array.make (Network.id_limit net) None in
  let bufs = buffers net in
  (* One constructive scan of dividend [f]: [`Refined] when a
     counterexample sharpened the signatures before anything landed. *)
  let scan_once f ~pool =
    let cur_lits = Lit_count.node_factored net f in
    let shapes =
      Counters.timed counters `Filter @@ fun () ->
      proposals_for net bufs ~sim ~max_divisors:default_max_divisors
        ~max_triples:default_max_triples ~cur_lits ~pool f
    in
    let rec try_shapes = function
      | [] -> `Quiet
      | shape :: tl -> (
        Counters.add counters.Counters.kresub_candidates 1;
        let cover = shape_cover shape in
        match
          Counters.timed counters `Validate (fun () ->
              validate oracle ~f cover)
        with
        | Some assign ->
          if !rows < 64 * sim_words then begin
            Signature.refine sim assign;
            incr rows;
            Counters.add counters.Counters.kresub_refinements 1;
            `Refined
          end
          else try_shapes tl
        | None ->
          Counters.add counters.Counters.kresub_validated 1;
          (* A losing shape leaves the revision, and with it the
             oracle's table, alone. *)
          if commit oracle ~f ~below:cur_lits cover then `Committed
          else try_shapes tl)
    in
    try_shapes shapes
  in
  let scan f =
    let cover = Network.cover net f and fanins = Network.fanins net f in
    (* The reuse test, and the pool when it fails, are construction. *)
    let tfo, pool =
      Counters.timed counters `Filter @@ fun () ->
      Network.clear bufs.b_tfo;
      let tfo = Network.mark_fanout net bufs.b_tfo [ f ] in
      let repeat =
        match quiet.(f) with
        | Some k ->
          k.q_rows = !rows && k.q_cover == cover && k.q_fanins = fanins
          && List.compare_length_with tfo (Array.length k.q_tfo) = 0
          && Array.for_all (Network.in_cone bufs.b_tfo) k.q_tfo
        | None -> false
      in
      (tfo, if repeat then None else Some (pool_of net bufs))
    in
    match pool with
    | None ->
      Counters.add counters.Counters.kresub_reused 1;
      false
    | Some pool ->
      (* Restarts after a refinement reuse the pool: nothing moved. *)
      let rec go restarts =
        match scan_once f ~pool with
        | `Refined when restarts < max_restarts -> go (restarts + 1)
        | outcome -> outcome
      in
      let outcome = go 0 in
      quiet.(f) <-
        (match outcome with
        | `Quiet ->
          Some
            {
              q_rows = !rows;
              q_cover = cover;
              q_fanins = fanins;
              q_tfo = Array.of_list tfo;
            }
        | `Committed | `Refined -> None);
      let committed = outcome = `Committed in
      if committed then begin
        incr substitutions;
        Counters.add counters.Counters.substitutions 1
      end;
      committed
  in
  Scheduler.run ~driver:"kresub"
    ~fields:[ ("words", Trace.Int sim_words) ]
    ~pass_work:(fun c -> c.Counters.kresub_candidates)
    ~max_passes:4 ?deadline_at ~trace ~counters net scan;
  !substitutions
