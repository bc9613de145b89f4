open Twolevel

type node_id = int

module Node_set = Set.Make (Int)
module Node_map = Map.Make (Int)

exception Cyclic of string

type kind =
  | Input
  | Logic of { mutable fanins : node_id array; mutable cover : Cover.t }

type node = {
  id : node_id;
  mutable node_name : string;
  mutable kind : kind;
  mutable fanout : int Node_map.t; (* fanout node id -> reference count *)
}

type mutation =
  | Node_added of node_id
  | Function_changed of node_id
  | Node_removed of node_id
  | Rebuilt

type observer_id = int

(* Nodes live in two structures. [store] serves every lookup by id:
   slot [id] holds the node, or [absent] where no node has that id.
   It grows by doubling and, because ids are never recycled, is sized
   by [next_id] (see DESIGN §17). [nodes] holds the same records and is
   kept only as the iteration-order index behind [node_ids],
   [node_count], [find_by_name] and [copy]: its bucket order leaks into
   stable-sort ties downstream, so serving iteration from [store]'s id
   order instead would move the optimisers' output. *)
type t = {
  nodes : (node_id, node) Hashtbl.t;
  mutable store : node array;
  mutable next_id : int;
  mutable input_order : node_id list; (* reversed *)
  mutable output_order : (string * node_id) list; (* reversed *)
  mutable revision : int;
  mutable next_observer : observer_id;
  mutable observers : (observer_id * (mutation -> unit)) list;
}

(* The shared free-slot marker of every [store]; never mutated and
   never handed out. *)
let absent =
  { id = -1; node_name = ""; kind = Input; fanout = Node_map.empty }

let create () =
  {
    nodes = Hashtbl.create 64;
    store = Array.make 64 absent;
    next_id = 0;
    input_order = [];
    output_order = [];
    revision = 0;
    next_observer = 0;
    observers = [];
  }

let revision t = t.revision

let on_mutation t f =
  let id = t.next_observer in
  t.next_observer <- id + 1;
  t.observers <- (id, f) :: t.observers;
  id

let remove_observer t id =
  t.observers <- List.filter (fun (i, _) -> i <> id) t.observers

let notify t m =
  t.revision <- t.revision + 1;
  List.iter (fun (_, f) -> f m) t.observers

let slot t id =
  if id >= 0 && id < Array.length t.store then Array.unsafe_get t.store id
  else absent

let mem t id = slot t id != absent

let node t id =
  let n = slot t id in
  if n != absent then n
  else invalid_arg (Printf.sprintf "Network: unknown node %d" id)

(* Register a new node in both structures. *)
let install t n =
  let cap = Array.length t.store in
  if n.id >= cap then begin
    let cap' = ref (max 16 cap) in
    while !cap' <= n.id do
      cap' := 2 * !cap'
    done;
    let grown = Array.make !cap' absent in
    Array.blit t.store 0 grown 0 cap;
    t.store <- grown
  end;
  t.store.(n.id) <- n;
  Hashtbl.add t.nodes n.id n

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let id_limit t = t.next_id

let add_input t input_name =
  let id = fresh_id t in
  install t { id; node_name = input_name; kind = Input; fanout = Node_map.empty };
  t.input_order <- id :: t.input_order;
  notify t (Node_added id);
  id

(* No id repeats. Fanin arrays are short, so compare pairwise. *)
let distinct fanins =
  let k = Array.length fanins in
  let rec unique_after i j =
    j >= k || (fanins.(i) <> fanins.(j) && unique_after i (j + 1))
  in
  let rec from i = i >= k || (unique_after i (i + 1) && from (i + 1)) in
  from 0

(* Merge duplicate fanins and drop fanins not in the cover's support,
   remapping the cover variables accordingly. *)
let remap ~fanins ~cover support =
  let kept = ref [] (* (slot, target), reversed *) and mapping = Hashtbl.create 8 in
  List.iter
    (fun v ->
      if v >= Array.length fanins then
        invalid_arg "Network: cover variable exceeds fanin count";
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
  let fanins' = Array.of_list (List.map snd (List.rev !kept)) in
  let cover' = Cover.rename_vars (fun v -> Hashtbl.find mapping v) cover in
  (* Merging duplicates can make a cube contradictory (x·x'), and
     [rename_vars] drops it, so a kept fanin may no longer be named:
     keep only the slots the renamed cover still names. *)
  if Array.length fanins' = List.length support then (fanins', cover')
  else
    let named = Cover.support cover' in
    if List.length named = Array.length fanins' then (fanins', cover')
    else begin
      let slot = Array.make (Array.length fanins') (-1) in
      List.iteri (fun i v -> slot.(v) <- i) named;
      ( Array.of_list (List.map (fun v -> fanins'.(v)) named),
        Cover.rename_vars (fun v -> slot.(v)) cover' )
    end

(* When the fanins are distinct and the sorted support is exactly
   [0 .. k-1] ([k] entries, the last below [k]), the remap is the
   identity, and because covers are canonical [rename_vars] would
   rebuild the same cover: skip both. *)
let normalise ~fanins ~cover =
  let support = Cover.support cover in
  let k = Array.length fanins in
  let rec below_k = function
    | [] -> true
    | [ v ] -> v < k
    | _ :: rest -> below_k rest
  in
  if List.length support = k && below_k support && distinct fanins then
    (Array.copy fanins, cover)
  else remap ~fanins ~cover support

let incr_fanout t ~from ~target =
  let n = node t target in
  let count = Option.value (Node_map.find_opt from n.fanout) ~default:0 in
  n.fanout <- Node_map.add from (count + 1) n.fanout

let decr_fanout t ~from ~target =
  let n = node t target in
  match Node_map.find_opt from n.fanout with
  | None -> ()
  | Some 1 -> n.fanout <- Node_map.remove from n.fanout
  | Some c -> n.fanout <- Node_map.add from (c - 1) n.fanout

let add_logic t ?name ~fanins cover =
  Array.iter
    (fun f -> if not (mem t f) then invalid_arg "Network.add_logic: unknown fanin")
    fanins;
  let fanins, cover = normalise ~fanins ~cover in
  let id = fresh_id t in
  let node_name = Option.value name ~default:(Printf.sprintf "n%d" id) in
  install t
    { id; node_name; kind = Logic { fanins; cover }; fanout = Node_map.empty };
  Array.iter (fun f -> incr_fanout t ~from:id ~target:f) fanins;
  notify t (Node_added id);
  id

let add_output t po_name id =
  if not (mem t id) then invalid_arg "Network.add_output: unknown node";
  t.output_order <- (po_name, id) :: t.output_order

let retarget_outputs t ~from_node ~to_node =
  if not (mem t to_node) then invalid_arg "Network.retarget_outputs: unknown node";
  t.output_order <-
    List.map
      (fun (po_name, id) ->
        if id = from_node then (po_name, to_node) else (po_name, id))
      t.output_order

let is_input t id = match (node t id).kind with Input -> true | Logic _ -> false

let name t id = (node t id).node_name

let find_by_name t wanted =
  Hashtbl.fold
    (fun id n acc -> if n.node_name = wanted then Some id else acc)
    t.nodes None

let fresh_name t base =
  if find_by_name t base = None then base
  else begin
    let rec probe i =
      let candidate = Printf.sprintf "%s_%d" base i in
      if find_by_name t candidate = None then candidate else probe (i + 1)
    in
    probe 2
  end

let fanins t id =
  match (node t id).kind with Input -> [||] | Logic l -> Array.copy l.fanins

let cover t id =
  match (node t id).kind with
  | Input -> invalid_arg "Network.cover: primary input"
  | Logic l -> l.cover

let fanouts t id = List.map fst (Node_map.bindings (node t id).fanout)

let fanout_count t id =
  Node_map.fold (fun _ c acc -> acc + c) (node t id).fanout 0

let outputs t = List.rev t.output_order

let is_output t id = List.exists (fun (_, n) -> n = id) t.output_order

let output_names t id =
  List.rev_map fst (List.filter (fun (_, n) -> n = id) t.output_order)

let inputs t = List.rev t.input_order

let node_ids t = Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes []

let logic_ids t = List.filter (fun id -> not (is_input t id)) (node_ids t)

let node_count t = Hashtbl.length t.nodes

let transitive_fanin t seeds =
  let visited = ref Node_set.empty in
  let rec visit id =
    if not (Node_set.mem id !visited) then begin
      visited := Node_set.add id !visited;
      Array.iter visit (fanins t id)
    end
  in
  List.iter visit seeds;
  !visited

let transitive_fanout t seeds =
  let visited = ref Node_set.empty in
  let rec visit id =
    if not (Node_set.mem id !visited) then begin
      visited := Node_set.add id !visited;
      List.iter visit (fanouts t id)
    end
  in
  List.iter visit seeds;
  !visited

(* Traversal marks, one byte per id. Every traversal allocates its own.
   No reason requires that now: each network is used by one domain, so
   a mark array in [t], reset by an epoch counter, would also do. *)
let marks t = Bytes.make t.next_id '\000'

(* Whether [dst] is in the transitive fanin of [src], by a DFS that stops
   as soon as it meets [dst]. Explored nodes are marked in [seen]; a
   caller may share [seen] across searches for the same [dst], since a
   node explored without meeting [dst] cannot reach it. *)
let reaches t seen ~dst src =
  let rec visit id =
    id = dst
    || Bytes.unsafe_get seen id = '\000'
       && begin
         Bytes.unsafe_set seen id '\001';
         match (node t id).kind with
         | Input -> false
         | Logic l -> Array.exists visit l.fanins
       end
  in
  visit src

let depends_on t n m =
  ignore (node t n) (* an unknown [n] raises, even when it equals [m] *);
  reaches t (marks t) ~dst:m n

let topological t =
  let color = marks t (* 0 unvisited, 1 active, 2 done *) in
  let order = ref [] in
  let rec visit id =
    match Bytes.unsafe_get color id with
    | '\002' -> ()
    | '\001' -> raise (Cyclic (Printf.sprintf "node %d on a cycle" id))
    | _ ->
      Bytes.unsafe_set color id '\001';
      (match (node t id).kind with
      | Input -> ()
      | Logic l -> Array.iter visit l.fanins);
      Bytes.unsafe_set color id '\002';
      order := id :: !order
  in
  for id = 0 to t.next_id - 1 do
    if mem t id then visit id
  done;
  List.rev !order

(* Reverse postorder of a DFS over fanout edges. For every edge u -> v
   inside the cone, v finishes before u, so u precedes v in the result:
   a topological order of TFO(seeds). *)
let fanout_cone_order t seeds =
  let seen = marks t in
  let order = ref [] in
  let rec visit n =
    if Bytes.unsafe_get seen n.id = '\000' then begin
      Bytes.unsafe_set seen n.id '\001';
      Node_map.iter (fun out _ -> visit (node t out)) n.fanout;
      order := n.id :: !order
    end
  in
  List.iter (fun id -> visit (node t id)) seeds;
  !order

let set_function t id ~fanins:new_fanins cover =
  let n = node t id in
  match n.kind with
  | Input -> invalid_arg "Network.set_function: primary input"
  | Logic l ->
    Array.iter
      (fun f ->
        if not (mem t f) then invalid_arg "Network.set_function: unknown fanin")
      new_fanins;
    let new_fanins, new_cover = normalise ~fanins:new_fanins ~cover in
    let seen = marks t in
    Array.iter
      (fun f ->
        if reaches t seen ~dst:id f then
          raise (Cyclic (Printf.sprintf "fanin %d depends on node %d" f id)))
      new_fanins;
    Array.iter (fun f -> decr_fanout t ~from:id ~target:f) l.fanins;
    l.fanins <- new_fanins;
    l.cover <- new_cover;
    Array.iter (fun f -> incr_fanout t ~from:id ~target:f) new_fanins;
    notify t (Function_changed id)

let remove_node t id =
  let n = node t id in
  if is_output t id then invalid_arg "Network.remove_node: drives an output";
  if not (Node_map.is_empty n.fanout) then
    invalid_arg "Network.remove_node: node still has fanouts";
  begin
    match n.kind with
    | Input -> t.input_order <- List.filter (fun i -> i <> id) t.input_order
    | Logic l -> Array.iter (fun f -> decr_fanout t ~from:id ~target:f) l.fanins
  end;
  Hashtbl.remove t.nodes id;
  t.store.(id) <- absent;
  notify t (Node_removed id)

let copy t =
  let fresh = create () in
  fresh.next_id <- t.next_id;
  fresh.store <- Array.make (max 16 t.next_id) absent;
  Hashtbl.iter
    (fun id n ->
      let kind =
        match n.kind with
        | Input -> Input
        | Logic l -> Logic { fanins = Array.copy l.fanins; cover = l.cover }
      in
      install fresh { id; node_name = n.node_name; kind; fanout = n.fanout })
    t.nodes;
  fresh.input_order <- t.input_order;
  fresh.output_order <- t.output_order;
  fresh

let overwrite dst src =
  let fresh = copy src in
  Hashtbl.reset dst.nodes;
  Hashtbl.iter (fun id n -> Hashtbl.add dst.nodes id n) fresh.nodes;
  dst.store <- fresh.store;
  dst.next_id <- fresh.next_id;
  dst.input_order <- fresh.input_order;
  dst.output_order <- fresh.output_order;
  notify dst Rebuilt

let eval t input_assignment =
  let values = Hashtbl.create (node_count t) in
  List.iter
    (fun id ->
      let v =
        match (node t id).kind with
        | Input -> input_assignment id
        | Logic l ->
          Cover.eval (fun var -> Hashtbl.find values l.fanins.(var)) l.cover
      in
      Hashtbl.replace values id v)
    (topological t);
  fun id -> Hashtbl.find values id

let eval_outputs t input_assignment =
  let values = eval t input_assignment in
  List.map (fun (po_name, id) -> (po_name, values id)) (outputs t)

let check t =
  let fail fmt = Printf.ksprintf failwith fmt in
  (* Acyclicity (raises Cyclic). *)
  let order = topological t in
  if List.length order <> node_count t then fail "topological order incomplete";
  Hashtbl.iter
    (fun id n ->
      if n.id <> id then fail "node %d has inconsistent id" id;
      (match n.kind with
      | Input -> ()
      | Logic l ->
        let nvars = Array.length l.fanins in
        let named = Array.make nvars false in
        List.iter
          (fun v ->
            if v < 0 || v >= nvars then
              fail "node %d: cover variable %d out of range" id v;
            named.(v) <- true)
          (Cover.support l.cover);
        Array.iteri
          (fun v f ->
            if not named.(v) then
              fail "node %d: fanin %d not named by the cover" id f)
          l.fanins;
        Array.iter
          (fun f ->
            if not (mem t f) then fail "node %d: dangling fanin %d" id f;
            let fo = (node t f).fanout in
            if not (Node_map.mem id fo) then
              fail "node %d missing from fanout of %d" id f)
          l.fanins;
        let seen = Hashtbl.create 4 in
        Array.iter
          (fun f ->
            if Hashtbl.mem seen f then fail "node %d: duplicate fanin %d" id f;
            Hashtbl.add seen f ())
          l.fanins);
      Node_map.iter
        (fun out count ->
          if count <= 0 then fail "node %d: non-positive fanout count" id;
          match Hashtbl.find_opt t.nodes out with
          | None -> fail "node %d: dangling fanout %d" id out
          | Some m ->
            (match m.kind with
            | Input -> fail "node %d: fanout %d is an input" id out
            | Logic l ->
              let refs =
                Array.fold_left
                  (fun acc f -> if f = id then acc + 1 else acc)
                  0 l.fanins
              in
              if refs <> count then
                fail "fanout count mismatch between %d and %d" id out))
        n.fanout)
    t.nodes;
  List.iter
    (fun (po_name, id) ->
      if not (mem t id) then fail "output %s: dangling node %d" po_name id)
    (outputs t)

let to_string t =
  let buffer = Buffer.create 256 in
  let order = topological t in
  List.iter
    (fun id ->
      match (node t id).kind with
      | Input -> Buffer.add_string buffer (Printf.sprintf "input %s\n" (name t id))
      | Logic l ->
        let var_name v = name t l.fanins.(v) in
        Buffer.add_string buffer
          (Printf.sprintf "%s = %s\n" (name t id)
             (Cover.to_string ~names:var_name l.cover)))
    order;
  List.iter
    (fun (po_name, id) ->
      Buffer.add_string buffer (Printf.sprintf "output %s = %s\n" po_name (name t id)))
    (outputs t);
  Buffer.contents buffer
