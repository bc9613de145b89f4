open Twolevel

type lit = int

exception Cycle

type t = {
  mutable f0 : int array;  (* fanin literals per node; -1 marks non-AND *)
  mutable f1 : int array;
  mutable n : int;  (* allocated nodes, including constant 0 *)
  mutable n_inputs : int;
  strash : (int * int, int) Hashtbl.t;  (* (f0, f1) with f0 >= f1 -> node *)
  names : (int, string) Hashtbl.t;  (* input node -> name *)
  mutable outs_rev : (string * lit) list;
  repl : (int, lit) Hashtbl.t;  (* node -> replacement literal *)
}

let const_false = 0

let const_true = 1

let lit_not l = l lxor 1

let lit_node l = l lsr 1

let lit_is_compl l = l land 1 = 1

let lit_of_node ?(compl = false) node = (node lsl 1) lor Bool.to_int compl

let create () =
  let f0 = Array.make 64 (-1) in
  let f1 = Array.make 64 (-1) in
  {
    f0;
    f1;
    n = 1;
    n_inputs = 0;
    strash = Hashtbl.create 256;
    names = Hashtbl.create 64;
    outs_rev = [];
    repl = Hashtbl.create 16;
  }

let node_count t = t.n

let num_inputs t = t.n_inputs

let num_ands t = t.n - 1 - t.n_inputs

let is_input t node = node >= 1 && node <= t.n_inputs

let is_and t node = node > t.n_inputs && node < t.n

let check_node t node fn =
  if node < 0 || node >= t.n then
    invalid_arg (Printf.sprintf "Aig.%s: node %d out of range" fn node)

let fanin0 t node =
  if not (is_and t node) then invalid_arg "Aig.fanin0: not an AND node";
  t.f0.(node)

let fanin1 t node =
  if not (is_and t node) then invalid_arg "Aig.fanin1: not an AND node";
  t.f1.(node)

let input_name t node =
  if not (is_input t node) then invalid_arg "Aig.input_name: not an input";
  Hashtbl.find t.names node

let inputs t =
  List.init t.n_inputs (fun i ->
      let node = i + 1 in
      (Hashtbl.find t.names node, lit_of_node node))

let outputs t = List.rev t.outs_rev

let grow t =
  if t.n >= Array.length t.f0 then begin
    let cap = 2 * Array.length t.f0 in
    let f0 = Array.make cap (-1) and f1 = Array.make cap (-1) in
    Array.blit t.f0 0 f0 0 t.n;
    Array.blit t.f1 0 f1 0 t.n;
    t.f0 <- f0;
    t.f1 <- f1
  end

let alloc t =
  grow t;
  let node = t.n in
  t.n <- t.n + 1;
  node

let add_input t name =
  if t.n <> 1 + t.n_inputs then
    invalid_arg "Aig.add_input: inputs must be created before AND nodes";
  Hashtbl.iter
    (fun _ existing ->
      if existing = name then
        invalid_arg (Printf.sprintf "Aig.add_input: duplicate input %S" name))
    t.names;
  let node = alloc t in
  t.n_inputs <- t.n_inputs + 1;
  Hashtbl.replace t.names node name;
  lit_of_node node

(* Chase the substitution table; an acyclic table yields chains no longer
   than its size, so running past that bound proves a loop. *)
let resolve t l =
  if Hashtbl.length t.repl = 0 then l
  else begin
    let fuel = ref (Hashtbl.length t.repl + 1) in
    let l = ref l in
    let continue_ = ref true in
    while !continue_ do
      match Hashtbl.find_opt t.repl (lit_node !l) with
      | None -> continue_ := false
      | Some r ->
        if !fuel = 0 then raise Cycle;
        decr fuel;
        l := r lxor (!l land 1)
    done;
    !l
  end

let fanin_nodes t node =
  (lit_node (resolve t (fanin0 t node)), lit_node (resolve t (fanin1 t node)))

let add_and t a b =
  let a = resolve t a and b = resolve t b in
  check_node t (lit_node a) "add_and";
  check_node t (lit_node b) "add_and";
  if a = b then a
  else if a = lit_not b then const_false
  else if a = const_false || b = const_false then const_false
  else if a = const_true then b
  else if b = const_true then a
  else begin
    let a, b = if a >= b then (a, b) else (b, a) in
    match Hashtbl.find_opt t.strash (a, b) with
    | Some node -> resolve t (lit_of_node node)
    | None ->
      let node = alloc t in
      t.f0.(node) <- a;
      t.f1.(node) <- b;
      Hashtbl.add t.strash (a, b) node;
      lit_of_node node
  end

let add_or t a b = lit_not (add_and t (lit_not a) (lit_not b))

let add_output t name l =
  check_node t (lit_node l) "add_output";
  if List.exists (fun (n, _) -> n = name) t.outs_rev then
    invalid_arg (Printf.sprintf "Aig.add_output: duplicate output %S" name);
  t.outs_rev <- (name, l) :: t.outs_rev

let substitute t node l =
  if not (is_and t node) then
    invalid_arg "Aig.substitute: only AND nodes can be replaced";
  if Hashtbl.mem t.repl node then
    invalid_arg "Aig.substitute: node already replaced";
  check_node t (lit_node l) "substitute";
  Hashtbl.replace t.repl node l

let clear_substitute t node = Hashtbl.remove t.repl node

(* Iterative DFS over the resolved graph with tri-colour marking: a grey
   node seen again is a back edge, i.e. a substitution loop. *)
let live_gate_count t =
  let color = Bytes.make t.n '\000' in
  let count = ref 0 in
  let visit start =
    let stack = ref [ start ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | node :: rest -> (
        match Bytes.get color node with
        | '\002' -> stack := rest
        | '\001' ->
          (* children done: close the node *)
          Bytes.set color node '\002';
          stack := rest
        | _ ->
          Bytes.set color node '\001';
          if is_and t node then begin
            incr count;
            let push l =
              let m = lit_node (resolve t l) in
              match Bytes.get color m with
              | '\000' -> stack := m :: !stack
              | '\001' ->
                (* a grey child is on the current path: a loop *)
                raise Cycle
              | _ -> ()
            in
            push t.f0.(node);
            push t.f1.(node)
          end)
    done
  in
  List.iter
    (fun (_, l) -> visit (lit_node (resolve t l)))
    (List.rev t.outs_rev);
  !count

(* Deterministic rebuild: inputs first (all of them, preserving names),
   then a DFS from the outputs in declaration order, emitting each AND
   node after its fanins. [map.(node)] is the new literal denoting the
   old node's positive phase (folding in the rebuild can flip phases or
   collapse nodes, so it is a literal, not a node). *)
let compact t =
  let nt = create () in
  let map = Array.make t.n (-1) in
  map.(0) <- const_false;
  for i = 1 to t.n_inputs do
    ignore (add_input nt (Hashtbl.find t.names i));
    map.(i) <- lit_of_node i
  done;
  let color = Bytes.make t.n '\000' in
  let build start =
    let stack = ref [ start ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | node :: rest ->
        if map.(node) >= 0 then begin
          Bytes.set color node '\002';
          stack := rest
        end
        else begin
          let a = resolve t t.f0.(node) and b = resolve t t.f1.(node) in
          let na = lit_node a and nb = lit_node b in
          (* Visit the smaller-literal child first. On a graph that is
             already compact (fanins below the node, no substitutions)
             the smaller child's cone cannot contain the larger child,
             so this post-order reproduces the numbering it is given —
             which is what makes [compact] idempotent and write∘parse
             a fixpoint. *)
          let first, second = if a <= b then (na, nb) else (nb, na) in
          let pending =
            List.filter (fun m -> map.(m) < 0) [ first; second ]
          in
          if pending = [] then begin
            let ml l = map.(lit_node l) lxor (l land 1) in
            map.(node) <- add_and nt (ml a) (ml b);
            Bytes.set color node '\002';
            stack := rest
          end
          else begin
            if Bytes.get color node = '\001' then raise Cycle;
            Bytes.set color node '\001';
            stack := pending @ !stack
          end
        end
    done
  in
  List.iter
    (fun (name, l) ->
      let l = resolve t l in
      build (lit_node l);
      add_output nt name (map.(lit_node l) lxor (l land 1)))
    (List.rev t.outs_rev);
  nt

(* ------------------------------------------------------------------ *)
(* Structural equality                                                 *)
(* ------------------------------------------------------------------ *)

let equal a b =
  Hashtbl.length a.repl = 0 && Hashtbl.length b.repl = 0 && a.n = b.n
  && a.n_inputs = b.n_inputs
  && List.equal
       (fun (n1, l1) (n2, l2) -> n1 = n2 && l1 = l2)
       (inputs a) (inputs b)
  && List.equal
       (fun (n1, l1) (n2, l2) -> n1 = n2 && l1 = l2)
       (outputs a) (outputs b)
  &&
  let rec ands node =
    node >= a.n
    || (a.f0.(node) = b.f0.(node) && a.f1.(node) = b.f1.(node)
       && ands (node + 1))
  in
  ands (1 + a.n_inputs)

(* ------------------------------------------------------------------ *)
(* SOP-network bridges                                                 *)
(* ------------------------------------------------------------------ *)

let fresh_name used base =
  if not (Hashtbl.mem used base) then begin
    Hashtbl.replace used base ();
    base
  end
  else begin
    let rec go k =
      let candidate = Printf.sprintf "%s_%d" base k in
      if Hashtbl.mem used candidate then go (k + 1)
      else begin
        Hashtbl.replace used candidate ();
        candidate
      end
    in
    go 1
  end

let to_network t =
  let t = compact t in
  let net = Network.create () in
  let used = Hashtbl.create 64 in
  List.iter (fun (name, _) -> Hashtbl.replace used name ()) (inputs t);
  List.iter (fun (name, _) -> Hashtbl.replace used name ()) (outputs t);
  let ids = Array.make t.n (-1) in
  for i = 1 to t.n_inputs do
    ids.(i) <- Network.add_input net (Hashtbl.find t.names i)
  done;
  for node = 1 + t.n_inputs to t.n - 1 do
    let a = t.f0.(node) and b = t.f1.(node) in
    let cube =
      Cube.of_literals_exn
        [
          Literal.make 0 (not (lit_is_compl a));
          Literal.make 1 (not (lit_is_compl b));
        ]
    in
    ids.(node) <-
      Network.add_logic net
        ~name:(fresh_name used (Printf.sprintf "g%d" node))
        ~fanins:[| ids.(lit_node a); ids.(lit_node b) |]
        (Cover.of_cubes [ cube ])
  done;
  List.iter
    (fun (name, l) ->
      let node = lit_node l in
      if node = 0 then begin
        (* constant output *)
        let cover = if lit_is_compl l then Cover.one else Cover.zero in
        let id = Network.add_logic net ~name ~fanins:[||] cover in
        Network.add_output net name id
      end
      else if lit_is_compl l then begin
        let id =
          Network.add_logic net ~name
            ~fanins:[| ids.(node) |]
            (Cover.of_cubes [ Cube.of_literals_exn [ Literal.neg 0 ] ])
        in
        Network.add_output net name id
      end
      else Network.add_output net name ids.(node))
    (outputs t);
  Network.check net;
  net

(* Tseitin: each cube is an AND chain from [const_true] in [Cube]
   literal order, each cover an OR chain of its cubes from
   [const_false], every logic node built in topological order (dangling
   ones included). Strash hits and node ids depend on exactly this
   order, and [compact]'s DFS order on the ids. *)
let add_network t net ~input =
  let lit_of = Hashtbl.create 64 in
  List.iter
    (fun id ->
      let l =
        if Network.is_input net id then input id
        else begin
          let fanins = Network.fanins net id in
          let cube_lit cube =
            Cube.fold_literals
              (fun acc l ->
                let base = Hashtbl.find lit_of fanins.(Literal.var l) in
                let edge = if Literal.is_pos l then base else lit_not base in
                add_and t acc edge)
              const_true cube
          in
          List.fold_left
            (fun acc cube -> add_or t acc (cube_lit cube))
            const_false
            (Cover.cubes (Network.cover net id))
        end
      in
      Hashtbl.replace lit_of id l)
    (Network.topological net);
  List.map (fun (_, id) -> Hashtbl.find lit_of id) (Network.outputs net)

let of_network net =
  let t = create () in
  let inputs = Hashtbl.create 64 in
  List.iter
    (fun id -> Hashtbl.replace inputs id (add_input t (Network.name net id)))
    (Network.inputs net);
  List.iter2
    (fun (name, _) l -> add_output t name l)
    (Network.outputs net)
    (add_network t net ~input:(Hashtbl.find inputs));
  t
