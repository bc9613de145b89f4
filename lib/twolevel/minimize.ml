let reduce_complement_limit = 256

(* Up to this many variables the Shannon complement of [others] has at
   most 256 cubes: a leaf of the recursion at depth d yields at most
   max(1, 8 - d) of them, and the leaves satisfy sum 2^-d <= 1. So the
   [reduce_complement_limit] fallback cannot fire, and the truth table
   path computes exactly what the complement path would. *)
let reduce_table_vars = 8

(* Supercube (smallest containing cube) of a cover. *)
let supercube cover =
  match Cover.cubes cover with
  | [] -> None
  | first :: rest -> Some (List.fold_left Cube.common first rest)

(* The supercube of the part of [cube] that [others] does not cover:
   [None] when that part is empty, or when the complement of [others]
   exceeds its limit. The supercube of non-empty cubes is the smallest
   cube containing their union, so it depends only on the function, and
   a truth table computes the same cube as the complement. *)
let essential_supercube cube others =
  match
    Truth_table.space ~limit:reduce_table_vars (cube :: Cover.cubes others)
  with
  | Some vars ->
    Truth_table.supercube
      (Truth_table.diff
         (Truth_table.of_cubes vars [ cube ])
         (Truth_table.of_cubes vars (Cover.cubes others)))
  | None ->
    Option.bind
      (Complement.cover_limited ~limit:reduce_complement_limit others)
      (fun off -> supercube (Cover.product_cube cube off))

(* IRREDUNDANT and REDUCE walk a cover's cubes in order and ask about
   the current cube against its "others": the cubes already kept, the
   cubes after it, and dc. A sweep answers those questions; [advance]
   retires the current cube, and [Some c] adds [c] to the kept ones. *)
type sweep = {
  covered : unit -> bool;  (* current cube inside the others *)
  essential : unit -> Cube.t option;
      (* supercube of the current cube minus the others *)
  advance : Cube.t option -> unit;
}

(* How one minimisation answers its queries: [inside c] is a staged
   containment test against [c ∪ dc], [sweep] starts a walk. *)
type space = {
  inside : Cover.t -> Cube.t -> bool;
  sweep : Cube.t list -> sweep;
}

(* Wide covers: every query builds the others' cover and asks
   {!Cover.containment} or {!essential_supercube}, which pick a truth
   table or the tautology/complement path per query. *)
let per_query dc =
  let sweep cubes =
    let kept = ref [] and rest = ref cubes in
    let others () = Cover.union (Cover.of_cubes (!kept @ List.tl !rest)) dc in
    {
      covered = (fun () -> Cover.contains_cube (others ()) (List.hd !rest));
      essential = (fun () -> essential_supercube (List.hd !rest) (others ()));
      advance =
        (fun c ->
          rest := List.tl !rest;
          Option.iter (fun c -> kept := c :: !kept) c);
    }
  in
  { inside = (fun cover -> Cover.containment (Cover.union cover dc)); sweep }

(* Covers (with dc) over at most [reduce_table_vars] variables: one table
   space serves the whole minimisation, since every cover the steps
   build stays inside the variables of the input (EXPAND and IRREDUNDANT
   drop literals and cubes, REDUCE intersects a cube with a supercube
   over the space). A sweep builds each cube's table once and keeps the
   others as a running OR of the kept cubes and a suffix OR of the rest,
   so a pass builds O(n) tables where the per-query path builds O(n^2).
   Tables are exact, and below 8 variables the per-query REDUCE takes
   its table path too, so both spaces give the same answers. *)
let single_space vars dc =
  let table cube = Truth_table.of_cubes vars [ cube ] in
  let dc_table = Truth_table.of_cubes vars (Cover.cubes dc) in
  let sweep cubes =
    let cubes = Array.of_list cubes in
    let tables = Array.map table cubes in
    let n = Array.length cubes in
    let suffix = Array.make (n + 1) dc_table in
    for j = n - 1 downto 0 do
      suffix.(j) <- Truth_table.union tables.(j) suffix.(j + 1)
    done;
    let prefix = ref (Truth_table.empty vars) and j = ref 0 in
    let others () = Truth_table.union !prefix suffix.(!j + 1) in
    {
      covered = (fun () -> Truth_table.covers (others ()) cubes.(!j));
      essential =
        (fun () ->
          Truth_table.supercube (Truth_table.diff tables.(!j) (others ())));
      advance =
        (fun c ->
          (match c with
          | None -> ()
          | Some c ->
            let t = if c == cubes.(!j) then tables.(!j) else table c in
            prefix := Truth_table.union !prefix t);
          incr j);
    }
  in
  {
    inside =
      (fun cover ->
        Truth_table.covers
          (Truth_table.union
             (Truth_table.of_cubes vars (Cover.cubes cover))
             dc_table));
    sweep;
  }

let space ~dc cover =
  match
    Truth_table.space ~limit:reduce_table_vars
      (Cover.cubes cover @ Cover.cubes dc)
  with
  | Some vars -> single_space vars dc
  | None -> per_query dc

let expand_in space cover =
  let inside_base = space.inside cover in
  let expand_cube cube =
    (* Try dropping literals one at a time; a drop is valid when the grown
       cube is still contained in onset ∪ dc. *)
    let rec go cube = function
      | [] -> cube
      | lit :: rest ->
        let candidate = Cube.remove_literal lit cube in
        if inside_base candidate then go candidate rest
        else go cube rest
    in
    go cube (Cube.literals cube)
  in
  Cover.single_cube_containment
    (Cover.of_cubes (List.map expand_cube (Cover.cubes cover)))

let irredundant_in space cover =
  (* Largest cubes first: prefer keeping big cubes, dropping specific ones. *)
  let ordered =
    List.sort
      (fun c1 c2 -> Int.compare (Cube.size c2) (Cube.size c1))
      (Cover.cubes cover)
  in
  let sweep = space.sweep ordered in
  let rec go kept = function
    | [] -> List.rev kept
    | cube :: rest ->
      if sweep.covered () then begin
        sweep.advance None;
        go kept rest
      end
      else begin
        sweep.advance (Some cube);
        go (cube :: kept) rest
      end
  in
  Cover.of_cubes (go [] ordered)

let reduce_in space cover =
  let cubes = Cover.cubes cover in
  let sweep = space.sweep cubes in
  let rec go kept = function
    | [] -> List.rev kept
    | cube :: rest ->
      (* An empty essential part leaves the cube for irredundant to
         remove. *)
      let reduced =
        match sweep.essential () with
        | None -> cube
        | Some core -> (
          match Cube.intersect core cube with
          | Some shrunk -> shrunk
          | None -> cube)
      in
      sweep.advance (Some reduced);
      go (reduced :: kept) rest
  in
  Cover.of_cubes (go [] cubes)

let expand ?(dc = Cover.zero) cover = expand_in (space ~dc cover) cover

let irredundant ?(dc = Cover.zero) cover =
  irredundant_in (space ~dc cover) cover

let reduce ?(dc = Cover.zero) cover = reduce_in (space ~dc cover) cover

let simplify ?(dc = Cover.zero) cover =
  let space = space ~dc cover in
  let step c =
    let c =
      irredundant_in space (expand_in space (Cover.single_cube_containment c))
    in
    irredundant_in space (expand_in space (reduce_in space c))
  in
  let rec fixpoint budget c =
    let c' = step c in
    if budget = 0 || Cover.equal c' c then c' else fixpoint (budget - 1) c'
  in
  let result = fixpoint 2 cover in
  if Cover.literal_count result <= Cover.literal_count cover then result
  else cover

(* Division asks for the same few complements over and over (a dividend
   against every divisor, a divisor against every dividend). The table
   is small on purpose: a cached complement may hold up to [limit]
   cubes, so a larger table shows up in peak memory. *)
let complement_memo : Cover.t option Cover_memo.t = Cover_memo.create ~cap:64

let complement ~limit cover =
  Cover_memo.find_or_add complement_memo limit cover (fun () ->
      Option.map simplify (Complement.cover_limited ~limit cover))
