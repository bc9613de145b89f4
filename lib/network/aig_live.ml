(* Incremental live view of an AIG under root substitutions.

   [refs.(x)] counts the edges into [x] from live AND gates and from the
   outputs, each edge resolved through the substitution table; a node is
   live exactly when its count is positive. [fanouts.(x)] lists the live
   gates behind those gate edges (one entry per edge), and [level] is a
   topological rank of the live gates: every live edge [x -> y] has
   [level.(x) > level.(y)]. Ranks may run above the true depth (they are
   raised, never lowered), which keeps them valid at O(change) cost.

   A splice ([apply]) works in the window's neighbourhood only:

   - before the substitution, the roots and the gates only they keep
     alive (their MFFC) are dereferenced, counting what is freed;
   - after it, each root's remaining references move to the node its
     new literal resolves to, and the cones that revives are referenced,
     counting what is added.

   A loop can only close through a moved edge [u -> m], with [m]
   reaching [u] again; [u] referenced a root [r], so [level u > level
   r]. The loop search from each [m] therefore stops at surviving live
   gates ranked below every such root: below that rank nothing reaches
   a moved edge. Every node the search enters is reachable from the
   outputs, so a loop it finds is one [Aig.live_gate_count] would
   raise [Aig.Cycle] for, and the converse holds because it starts from
   every moved edge with a live source. Counts changed by a splice are
   logged on a trail, so [revert] restores them exactly; fanouts and
   ranks change only on [commit]. *)

type pending = {
  subs : (int * Aig.lit) list;
  count_before : int;
  killed : (int * int * int) list;  (* gate, resolved fanin nodes *)
  born : int list;  (* newly live gates, fanins first *)
  moved : (int * int) list;  (* root, node its references moved to *)
  looped : bool;
}

type t = {
  aig : Aig.t;
  mutable refs : int array;
  mutable level : int array;
  mutable fanouts : int array array;
  mutable n_fanouts : int array;
  mutable mark : int array;  (* loop-search colours, [epoch]-stamped *)
  mutable epoch : int;
  mutable count : int;
  mutable trail : (int * int) list;  (* node, refs before the splice *)
  mutable pending : pending option;
}

let extend a n fill =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Splices append nodes to the graph; make room for all of them. *)
let ensure_capacity t =
  let n = Aig.node_count t.aig in
  if Array.length t.refs < n then begin
    t.refs <- extend t.refs n 0;
    t.level <- extend t.level n 0;
    t.fanouts <- extend t.fanouts n [||];
    t.n_fanouts <- extend t.n_fanouts n 0;
    t.mark <- extend t.mark n 0
  end

let add_fanout t x u =
  let k = t.n_fanouts.(x) in
  if k = Array.length t.fanouts.(x) then begin
    let b = Array.make (max 2 (2 * k)) 0 in
    Array.blit t.fanouts.(x) 0 b 0 k;
    t.fanouts.(x) <- b
  end;
  t.fanouts.(x).(k) <- u;
  t.n_fanouts.(x) <- k + 1

let remove_fanout t x u =
  let fo = t.fanouts.(x) and k = t.n_fanouts.(x) - 1 in
  let i = ref 0 in
  while fo.(!i) <> u do
    incr i
  done;
  fo.(!i) <- fo.(k);
  t.n_fanouts.(x) <- k

let create aig =
  let n = max 1 (Aig.node_count aig) in
  let t =
    {
      aig;
      refs = Array.make n 0;
      level = Array.make n 0;
      fanouts = Array.make n [||];
      n_fanouts = Array.make n 0;
      mark = Array.make n 0;
      epoch = 0;
      count = 0;
      trail = [];
      pending = None;
    }
  in
  (* Post-order DFS over the resolved graph, as [Aig.live_gate_count]:
     a gate is ranked and its edges counted when it closes. *)
  let color = Bytes.make n '\000' in
  let visit start =
    let stack = ref [ start ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | x :: rest -> (
        match Bytes.get color x with
        | '\002' -> stack := rest
        | '\001' ->
          Bytes.set color x '\002';
          stack := rest;
          let a, b = Aig.fanin_nodes aig x in
          t.level.(x) <- 1 + max t.level.(a) t.level.(b);
          List.iter
            (fun y ->
              t.refs.(y) <- t.refs.(y) + 1;
              add_fanout t y x)
            [ a; b ];
          t.count <- t.count + 1
        | _ ->
          if Aig.is_and aig x then begin
            Bytes.set color x '\001';
            let a, b = Aig.fanin_nodes aig x in
            List.iter
              (fun y ->
                match Bytes.get color y with
                | '\000' -> stack := y :: !stack
                | '\001' -> raise Aig.Cycle
                | _ -> ())
              [ a; b ]
          end
          else begin
            Bytes.set color x '\002';
            stack := rest
          end)
    done
  in
  List.iter
    (fun (_, l) ->
      let m = Aig.lit_node (Aig.resolve aig l) in
      t.refs.(m) <- t.refs.(m) + 1;
      visit m)
    (Aig.outputs aig);
  t

let count t =
  match t.pending with Some p -> p.count_before | None -> t.count

let refs t x = if x < Array.length t.refs then t.refs.(x) else 0

let set_refs t x v =
  t.trail <- (x, t.refs.(x)) :: t.trail;
  t.refs.(x) <- v

exception Loop

(* Search from each target [m] for a loop through the substituted graph,
   entering only nodes that could reach a moved edge (see the header). *)
let find_loop t moved =
  let aig = t.aig in
  let threshold =
    List.fold_left (fun acc (r, _) -> min acc t.level.(r)) max_int moved
  in
  t.epoch <- t.epoch + 2;
  let grey = t.epoch and black = t.epoch + 1 in
  let settled x =
    (not (Aig.is_and aig x)) || (t.refs.(x) > 0 && t.level.(x) < threshold)
  in
  let visit start =
    let stack = ref [ start ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | x :: rest ->
        let c = t.mark.(x) in
        if c = black then stack := rest
        else if c = grey || settled x then begin
          t.mark.(x) <- black;
          stack := rest
        end
        else begin
          t.mark.(x) <- grey;
          let a, b = Aig.fanin_nodes aig x in
          List.iter
            (fun y ->
              let c = t.mark.(y) in
              if c = grey then raise Loop
              else if c <> black then stack := y :: !stack)
            [ a; b ]
        end
    done
  in
  try
    List.iter (fun (_, m) -> visit m) moved;
    false
  with Loop | Aig.Cycle -> true

let apply t subs =
  if t.pending <> None then invalid_arg "Aig_live.apply: a splice is pending";
  ensure_capacity t;
  let aig = t.aig in
  let count_before = t.count in
  let roots = List.map fst subs in
  List.iter
    (fun r ->
      if t.refs.(r) = 0 then invalid_arg "Aig_live.apply: root is not live")
    roots;
  (* Free the roots and their MFFC in the graph before the substitution. *)
  let killed = ref [] in
  let rec kill x =
    t.count <- t.count - 1;
    let a, b = Aig.fanin_nodes aig x in
    killed := (x, a, b) :: !killed;
    deref a;
    deref b
  and deref y =
    set_refs t y (t.refs.(y) - 1);
    if t.refs.(y) = 0 && Aig.is_and aig y && not (List.mem y roots) then
      kill y
  in
  List.iter kill roots;
  List.iter (fun (r, l) -> Aig.substitute aig r l) subs;
  (* What still references a root now references its replacement. *)
  let moves =
    List.filter_map
      (fun r ->
        let c = t.refs.(r) in
        set_refs t r 0;
        if c = 0 then None else Some (r, c))
      roots
  in
  let pending ~looped moved born =
    t.pending <-
      Some { subs; count_before; killed = !killed; born; moved; looped }
  in
  match
    List.map
      (fun (r, c) -> (r, Aig.lit_node (Aig.resolve aig (Aig.lit_of_node r)), c))
      moves
  with
  | exception Aig.Cycle ->
    pending ~looped:true [] [];
    None
  | targets ->
    let moved = List.map (fun (r, m, _) -> (r, m)) targets in
    if find_loop t moved then begin
      pending ~looped:true moved [];
      None
    end
    else begin
      (* Reference the revived cones; [born] collects them post-order. *)
      let born = ref [] in
      let rec add y k =
        let was = t.refs.(y) in
        set_refs t y (was + k);
        if was = 0 && Aig.is_and aig y then begin
          t.count <- t.count + 1;
          let a, b = Aig.fanin_nodes aig y in
          add a 1;
          add b 1;
          born := y :: !born
        end
      in
      List.iter (fun (_, m, c) -> add m c) targets;
      pending ~looped:false moved (List.rev !born);
      Some t.count
    end

let revert t =
  match t.pending with
  | None -> invalid_arg "Aig_live.revert: no splice is pending"
  | Some p ->
    List.iter (fun (r, _) -> Aig.clear_substitute t.aig r) p.subs;
    List.iter (fun (x, v) -> t.refs.(x) <- v) t.trail;
    t.trail <- [];
    t.count <- p.count_before;
    t.pending <- None

let commit t =
  match t.pending with
  | None -> invalid_arg "Aig_live.commit: no splice is pending"
  | Some { looped = true; _ } ->
    invalid_arg "Aig_live.commit: the pending splice closes a loop"
  | Some p ->
    let aig = t.aig in
    List.iter
      (fun (x, a, b) ->
        remove_fanout t a x;
        remove_fanout t b x)
      p.killed;
    List.iter
      (fun y ->
        let a, b = Aig.fanin_nodes aig y in
        t.level.(y) <- 1 + max t.level.(a) t.level.(b);
        add_fanout t a y;
        add_fanout t b y)
      p.born;
    (* Moved edges, and everything above them, may need a higher rank. *)
    let raise_ = ref [] in
    List.iter
      (fun (r, m) ->
        for i = 0 to t.n_fanouts.(r) - 1 do
          let u = t.fanouts.(r).(i) in
          add_fanout t m u;
          raise_ := u :: !raise_
        done;
        t.n_fanouts.(r) <- 0)
      p.moved;
    while !raise_ <> [] do
      match !raise_ with
      | [] -> ()
      | u :: rest ->
        raise_ := rest;
        let a, b = Aig.fanin_nodes aig u in
        let l = 1 + max t.level.(a) t.level.(b) in
        if l > t.level.(u) then begin
          t.level.(u) <- l;
          for i = 0 to t.n_fanouts.(u) - 1 do
            raise_ := t.fanouts.(u).(i) :: !raise_
          done
        end
    done;
    t.trail <- [];
    t.pending <- None
