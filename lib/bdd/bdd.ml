(* Node 0 = constant false, node 1 = constant true. Internal nodes are
   triples (var, low, high) with low <> high and var smaller than the vars
   of both children (identity variable order). *)

type t = int

type man = {
  mutable var_of : int array;
  mutable low_of : int array;
  mutable high_of : int array;
  mutable count : int;
  unique : (int * int * int, int) Hashtbl.t;
  ite_cache : (int * int * int, int) Hashtbl.t;
  constrain_cache : (int * int, int) Hashtbl.t;
}

let terminal_var = max_int

let create () =
  let man =
    {
      var_of = Array.make 1024 terminal_var;
      low_of = Array.make 1024 (-1);
      high_of = Array.make 1024 (-1);
      count = 2;
      unique = Hashtbl.create 1024;
      ite_cache = Hashtbl.create 1024;
      constrain_cache = Hashtbl.create 256;
    }
  in
  man

let bfalse _ = 0

let btrue _ = 1

let var_of m n = m.var_of.(n)

let grow m =
  let cap = Array.length m.var_of in
  if m.count >= cap then begin
    let grow_array a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit a 0 b 0 cap;
      b
    in
    m.var_of <- grow_array m.var_of terminal_var;
    m.low_of <- grow_array m.low_of (-1);
    m.high_of <- grow_array m.high_of (-1)
  end

let mk m v low high =
  if low = high then low
  else
    let key = (v, low, high) in
    match Hashtbl.find_opt m.unique key with
    | Some n -> n
    | None ->
      grow m;
      let n = m.count in
      m.count <- n + 1;
      m.var_of.(n) <- v;
      m.low_of.(n) <- low;
      m.high_of.(n) <- high;
      Hashtbl.add m.unique key n;
      n

let var m i =
  assert (i >= 0 && i < terminal_var);
  mk m i 0 1

let nvar m i = mk m i 1 0

let top_var m f g h = min (var_of m f) (min (var_of m g) (var_of m h))

let branch m v n =
  if var_of m n = v then (m.low_of.(n), m.high_of.(n)) else (n, n)

let rec ite m f g h =
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else
    let key = (f, g, h) in
    match Hashtbl.find_opt m.ite_cache key with
    | Some r -> r
    | None ->
      let v = top_var m f g h in
      let f0, f1 = branch m v f in
      let g0, g1 = branch m v g in
      let h0, h1 = branch m v h in
      let low = ite m f0 g0 h0 in
      let high = ite m f1 g1 h1 in
      let r = mk m v low high in
      Hashtbl.add m.ite_cache key r;
      r

let not_ m f = ite m f 0 1

let band m f g = ite m f g 0

let bor m f g = ite m f 1 g

let bxor m f g = ite m f (not_ m g) g

let equal (a : t) (b : t) = a = b

let is_false _ f = f = 0

let rec constrain m f c =
  if c = 0 then invalid_arg "Bdd.constrain: care set is empty"
  else if c = 1 || f <= 1 then f
  else if f = c then 1
  else
    let key = (f, c) in
    match Hashtbl.find_opt m.constrain_cache key with
    | Some r -> r
    | None ->
      let v = min (var_of m f) (var_of m c) in
      let f0, f1 = branch m v f in
      let c0, c1 = branch m v c in
      let r =
        if c0 = 0 then constrain m f1 c1
        else if c1 = 0 then constrain m f0 c0
        else mk m v (constrain m f0 c0) (constrain m f1 c1)
      in
      Hashtbl.add m.constrain_cache key r;
      r

let rec eval m f assign =
  if f = 0 then false
  else if f = 1 then true
  else if assign (var_of m f) then eval m m.high_of.(f) assign
  else eval m m.low_of.(f) assign

let any_sat m f =
  let rec go acc f =
    if f = 0 then None
    else if f = 1 then Some (List.rev acc)
    else
      let v = var_of m f in
      match go ((v, true) :: acc) m.high_of.(f) with
      | Some path -> Some path
      | None -> go ((v, false) :: acc) m.low_of.(f)
  in
  go [] f
