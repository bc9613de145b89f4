let expand ?(dc = Cover.zero) cover =
  let inside_base = Cover.containment (Cover.union cover dc) in
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

let irredundant ?(dc = Cover.zero) cover =
  (* Largest cubes first: prefer keeping big cubes, dropping specific ones. *)
  let ordered =
    List.sort
      (fun c1 c2 -> Int.compare (Cube.size c2) (Cube.size c1))
      (Cover.cubes cover)
  in
  let rec go kept = function
    | [] -> List.rev kept
    | cube :: rest ->
      let others = Cover.of_cubes (kept @ rest) in
      if Cover.contains_cube (Cover.union others dc) cube then go kept rest
      else go (cube :: kept) rest
  in
  Cover.of_cubes (go [] ordered)

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

let reduce ?(dc = Cover.zero) cover =
  let rec go kept = function
    | [] -> List.rev kept
    | cube :: rest ->
      let others = Cover.union (Cover.of_cubes (kept @ rest)) dc in
      (* An empty essential part leaves the cube for irredundant to
         remove. *)
      let reduced =
        match essential_supercube cube others with
        | None -> cube
        | Some core -> (
          match Cube.intersect core cube with
          | Some shrunk -> shrunk
          | None -> cube)
      in
      go (reduced :: kept) rest
  in
  Cover.of_cubes (go [] (Cover.cubes cover))

let simplify ?(dc = Cover.zero) cover =
  let step c =
    let c = irredundant ~dc (expand ~dc (Cover.single_cube_containment c)) in
    irredundant ~dc (expand ~dc (reduce ~dc c))
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
