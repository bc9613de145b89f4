open Twolevel
module Network = Logic_network.Network
module Lift = Logic_network.Lift
module Scheduler = Booldiv.Scheduler
module Lit_count = Logic_network.Lit_count
module Lit_floor = Logic_network.Lit_floor
module Signature = Logic_sim.Signature
module Counters = Rar_util.Counters
module Trace = Rar_util.Trace

let complement_limit = 64

let max_candidates = 32

(* A dividend's lifted cover and factored literal count, forced at its
   first attempt and taken again only after a commit changes it. *)
let lift_dividend net f = lazy (Lift.cover net f, Lit_count.node_factored net f)

(* The weak quotient of [f] by a cover of [d] (or of its complement) is
   nonzero only if every divisor cube sits inside some cube of [f], so
   only if [f]'s cover names every variable the divisor's cover names.
   Every cover of a function, or of its complement, names each variable
   the function depends on. So when [d] depends on a node that is not
   among [f]'s fanins (a superset of the nodes [f]'s cover names), no
   cover of either phase divides [f]: the attempt would fail, and is
   skipped before [d] is lifted or complemented. *)
let may_divide net ~f ~d =
  let f_fanins = Network.fanins net f and d_fanins = Network.fanins net d in
  List.for_all
    (fun v -> Array.exists (Int.equal d_fanins.(v)) f_fanins)
    (Lit_floor.functional_support (Network.cover net d))

(* One algebraic division attempt of f by the given lifted divisor cover,
   substituting the literal [d_lit] for it on success. A losing attempt
   leaves the network and its revision untouched. *)
let attempt net ~f ~dividend ~d_cover ~d_lit =
  let f_cover, before_lits = Lazy.force dividend in
  let q, r = Algebraic.divide f_cover d_cover in
  (not (Cover.is_zero q))
  &&
  let d_single = Cover.of_cubes [ Cube.of_literals_exn [ d_lit ] ] in
  Lift.set_cover_if_cheaper net f ~below:before_lits
    (Cover.union (Cover.product q d_single) r)

let substitute ~use_complement net ~f ~dividend ~d =
  not
    (f = d
    || Network.is_input net f
    || Network.is_input net d
    || (not (may_divide net ~f ~d))
    || Network.depends_on net d f)
  &&
  let d_cover = Lift.cover net d in
  attempt net ~f ~dividend ~d_cover ~d_lit:(Literal.pos d)
  || use_complement
     &&
     match Minimize.complement ~limit:complement_limit d_cover with
     | None -> false
     | Some d_not ->
       attempt net ~f ~dividend ~d_cover:d_not ~d_lit:(Literal.neg d)

let try_substitute ?(use_complement = true) net ~f ~d =
  substitute ~use_complement net ~f ~dividend:(lift_dividend net f) ~d

(* Every commit of a run is an exact algebraic rewrite of its dividend
   and adds or removes no node: no node's function moves, so neither
   does a signature or a signature test. A dividend's divisors are
   tested once per run, and ranked again only when a commit has moved
   TFO(f), the one input of the ranking that commits change. *)
type ranking = {
  net : Network.t;
  sigs : Signature.t;
  nodes : Network.node_id list;  (** ascending id *)
  tfo : Network.cone;
  orders : (Network.node_id, order) Hashtbl.t;
}

(* One dividend's divisors: the pairs a scan considers, the compatible
   divisors, and the last ranking with the TFO(f) it left out. Node sets
   are a bit per id. *)
and order = {
  considered : int;
  compatible : Bytes.t;
  ranked_tfo : Bytes.t;
  mutable ranked_tfo_size : int;
  mutable admitted : int;
  mutable ranked : Network.node_id array;
}

let ranking sigs net =
  {
    net;
    sigs;
    nodes = List.rev (Network.logic_ids net);
    tfo = Network.cone net;
    orders = Hashtbl.create 64;
  }

let mem_bit set d =
  Char.code (Bytes.get set (d lsr 3)) land (1 lsl (d land 7)) <> 0

let add_bit set d =
  Bytes.set set (d lsr 3)
    (Char.chr (Char.code (Bytes.get set (d lsr 3)) lor (1 lsl (d land 7))))

let order r f =
  match Hashtbl.find_opt r.orders f with
  | Some o -> o
  | None ->
    let node_set () = Bytes.make ((Network.id_limit r.net + 7) / 8) '\000' in
    let compatible = node_set () in
    let considered = ref 0 in
    List.iter
      (fun d ->
        if d <> f && Network.mem r.net d then begin
          incr considered;
          if Signature.compatible r.sigs ~use_complement:true ~f ~d then
            add_bit compatible d
        end)
      r.nodes;
    (* TFO(f) holds [f], so the first scan never matches this one. *)
    let o =
      {
        considered = !considered;
        compatible;
        ranked_tfo = node_set ();
        ranked_tfo_size = 0;
        admitted = 0;
        ranked = [||];
      }
    in
    Hashtbl.replace r.orders f o;
    o

(* Candidate divisors for one dividend: nodes in [f]'s transitive fanout
   (those that depend on it, marked in [tfo]) and incompatible pairs are
   dropped, and the survivors are ranked by signature overlap, keeping
   the top [max_candidates]. *)
let candidates ~counters r ~f =
  Counters.timed counters `Filter @@ fun () ->
  let o = order r f in
  Network.clear r.tfo;
  let tfo = Network.mark_fanout r.net r.tfo [ f ] in
  if
    not
      (List.compare_length_with tfo o.ranked_tfo_size = 0
      && List.for_all (mem_bit o.ranked_tfo) tfo)
  then begin
    let admitted =
      List.filter
        (fun d -> mem_bit o.compatible d && not (Network.in_cone r.tfo d))
        r.nodes
    in
    Bytes.fill o.ranked_tfo 0 (Bytes.length o.ranked_tfo) '\000';
    List.iter (add_bit o.ranked_tfo) tfo;
    o.ranked_tfo_size <- List.length tfo;
    o.admitted <- List.length admitted;
    o.ranked <-
      Signature.rank ~k:max_candidates
        ~score:(fun d -> Signature.score r.sigs ~use_complement:true ~f ~d)
        (Array.of_list admitted)
  end;
  Counters.add counters.Counters.pairs_considered o.considered;
  Counters.add counters.Counters.pairs_filtered (o.considered - o.admitted);
  o.ranked

let run ?(sim_seed = Signature.default_seed) ?deadline_at
    ?(trace = Trace.disabled) ?counters ?dc net =
  let counters =
    match counters with Some c -> c | None -> Counters.create ()
  in
  let sigs = Signature.create ~seed:sim_seed ?dc net in
  Signature.detach sigs;
  let ranking = ranking sigs net in
  let substitutions = ref 0 in
  let pair_attempt f dividend d =
    Counters.timed counters `Division @@ fun () ->
    Counters.add counters.Counters.divisions_attempted 1;
    substitute ~use_complement:true net ~f ~dividend ~d
  in
  let scan f =
    let landed = ref false in
    let dividend = ref (lift_dividend net f) in
    Array.iter
      (fun d ->
        if
          Network.mem net f && Network.mem net d && pair_attempt f !dividend d
        then begin
          dividend := lift_dividend net f;
          landed := true;
          incr substitutions;
          Counters.add counters.Counters.substitutions 1
        end)
      (candidates ~counters ranking ~f);
    !landed
  in
  Scheduler.run ~driver:"resub" ~max_passes:4 ?deadline_at ~trace ~counters
    net scan;
  !substitutions
