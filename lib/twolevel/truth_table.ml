type space = int array

type t = { vars : space; chunks : int array }

let max_vars = 10

(* Positions below [low_vars] index the bit inside a 32-bit chunk, the
   rest index the chunk. *)
let low_vars = 5

let full = 0xFFFF_FFFF

(* Bit [m] of [low_pattern.(i)] is set iff bit [i] of [m] is. *)
let low_pattern =
  [| 0xAAAA_AAAA; 0xCCCC_CCCC; 0xF0F0_F0F0; 0xFF00_FF00; 0xFFFF_0000 |]

exception Too_many

let space ?(limit = max_vars) cubes =
  let limit = min limit max_vars in
  let vars = Array.make limit 0 and n = ref 0 in
  let add v =
    let i = ref 0 in
    while !i < !n && vars.(!i) < v do
      incr i
    done;
    if !i = !n || vars.(!i) <> v then begin
      if !n = limit then raise Too_many;
      Array.blit vars !i vars (!i + 1) (!n - !i);
      vars.(!i) <- v;
      incr n
    end
  in
  match
    List.iter
      (Cube.fold_literals (fun () lit -> add (Literal.var lit)) ())
      cubes
  with
  | () -> Some (Array.sub vars 0 !n)
  | exception Too_many -> None

let position (vars : space) v =
  let n = Array.length vars in
  let i = ref 0 in
  while !i < n && vars.(!i) <> v do
    incr i
  done;
  if !i = n then -1 else !i

(* A cube's minterms are the bits of [mask] in every chunk [k] with
   [k land care = value]. Literals outside the space are dropped. *)
let encode vars c f =
  let mask = ref full and care = ref 0 and value = ref 0 in
  Cube.fold_literals
    (fun () lit ->
      let i = position vars (Literal.var lit) in
      if i < 0 then ()
      else if i < low_vars then
        mask :=
          !mask
          land
          if Literal.is_pos lit then low_pattern.(i)
          else full lxor low_pattern.(i)
      else begin
        let bit = 1 lsl (i - low_vars) in
        care := !care lor bit;
        if Literal.is_pos lit then value := !value lor bit
      end)
    () c;
  f !mask !care !value

let of_cubes vars cubes =
  let chunks = Array.make (1 lsl max 0 (Array.length vars - low_vars)) 0 in
  List.iter
    (fun c ->
      encode vars c (fun mask care value ->
          for k = 0 to Array.length chunks - 1 do
            if k land care = value then chunks.(k) <- chunks.(k) lor mask
          done))
    cubes;
  { vars; chunks }

let covers t c =
  encode t.vars c (fun mask care value ->
      let chunks = t.chunks in
      let n = Array.length chunks in
      let k = ref 0 in
      while
        !k < n && (!k land care <> value || chunks.(!k) land mask = mask)
      do
        incr k
      done;
      !k = n)

let empty vars =
  { vars; chunks = Array.make (1 lsl max 0 (Array.length vars - low_vars)) 0 }

let union a b =
  { a with chunks = Array.map2 (fun x y -> x lor y) a.chunks b.chunks }

let diff a b =
  { a with chunks = Array.map2 (fun x y -> x land lnot y) a.chunks b.chunks }

(* The onset lies inside literal (i, phase): no minterm has the other
   value at position i. *)
let inside t i phase =
  if i < low_vars then begin
    let outside =
      if phase then full lxor low_pattern.(i) else low_pattern.(i)
    in
    Array.for_all (fun x -> x land outside = 0) t.chunks
  end
  else begin
    let bit = 1 lsl (i - low_vars) in
    let outside k = (k land bit <> 0) <> phase in
    let ok = ref true in
    Array.iteri (fun k x -> if x <> 0 && outside k then ok := false) t.chunks;
    !ok
  end

let supercube t =
  if Array.for_all (fun x -> x = 0) t.chunks then None
  else begin
    let lits = ref [] in
    Array.iteri
      (fun i v ->
        if inside t i true then lits := Literal.pos v :: !lits
        else if inside t i false then lits := Literal.neg v :: !lits)
      t.vars;
    Some (Cube.of_literals_exn !lits)
  end

(* The function depends on position [i] iff its two cofactors there
   differ: inside a chunk, the minterms with bit [i] set, shifted onto
   their partners; across chunks, each chunk against its partner. *)
let depends t i =
  let chunks = t.chunks in
  if i < low_vars then begin
    let p = low_pattern.(i) and shift = 1 lsl i in
    Array.exists (fun x -> (x land p) lsr shift <> x land (full lxor p)) chunks
  end
  else begin
    let bit = 1 lsl (i - low_vars) in
    let rec from k =
      k < Array.length chunks
      && ((k land bit = 0 && chunks.(k) <> chunks.(k lor bit)) || from (k + 1))
    in
    from 0
  end

let support t =
  List.filteri (fun i _ -> depends t i) (Array.to_list t.vars)

(* Some minterm has the function at 1 with position [i] at [phase] and
   at 0 with [i] flipped, and [region] holds both or neither: inside a
   chunk against the partner bits, across chunks against the partner
   chunk. Without [region] every pair counts. *)
let needs ?region t i phase =
  let chunks = t.chunks in
  let rc = match region with Some r -> r.chunks | None -> [||] in
  let region k = if Array.length rc = 0 then 0 else rc.(k) in
  (* The minterms with [i] at [phase] where the function is 1 and its
     partner 0, on the bits of the partner's position. *)
  let lone ~one ~zero = if phase then one land lnot zero else zero land lnot one in
  let n = Array.length chunks in
  let found = ref false and k = ref 0 in
  if i < low_vars then begin
    let p = low_pattern.(i) and shift = 1 lsl i in
    while (not !found) && !k < n do
      let x = chunks.(!k) and r = region !k in
      let pairs =
        lone ~one:((x land p) lsr shift) ~zero:(x land (full lxor p))
      in
      if pairs land lnot (((r land p) lsr shift) lxor r) <> 0 then
        found := true;
      incr k
    done
  end
  else begin
    let bit = 1 lsl (i - low_vars) in
    while (not !found) && !k < n do
      let k0 = !k in
      if
        k0 land bit = 0
        && lone ~one:chunks.(k0 lor bit) ~zero:chunks.(k0)
           land lnot (region k0 lxor region (k0 lor bit))
           <> 0
      then found := true;
      incr k
    done
  end;
  !found

let region_literals ?region = function
  | [] -> 0
  | t :: _ as ts ->
    let n = ref 0 in
    for i = 0 to Array.length t.vars - 1 do
      if List.exists (fun t -> needs ?region t i true) ts then incr n;
      if List.exists (fun t -> needs ?region t i false) ts then incr n
    done;
    !n

let required_literals t = region_literals [ t ]
