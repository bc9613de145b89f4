open Twolevel

let support_memo : int list Cover_memo.t = Cover_memo.create ~cap:64

let functional_support cover =
  Cover_memo.find_or_add support_memo 0 cover (fun () ->
      let cubes = Cover.cubes cover in
      match Truth_table.space cubes with
      | Some vars -> Truth_table.support (Truth_table.of_cubes vars cubes)
      | None ->
        List.filter
          (fun v ->
            not
              (Cover.equivalent
                 (Cover.cofactor (Literal.pos v) cover)
                 (Cover.cofactor (Literal.neg v) cover)))
          (Cover.support cover))

let required_memo : int Cover_memo.t = Cover_memo.create ~cap:64

let required_literals cover =
  Cover_memo.find_or_add required_memo 0 cover @@ fun () ->
  let cubes = Cover.cubes cover in
  match Truth_table.space cubes with
  | Some vars -> Truth_table.required_literals (Truth_table.of_cubes vars cubes)
  | None ->
    List.fold_left
      (fun acc v ->
        let hi = Cover.cofactor (Literal.pos v) cover
        and lo = Cover.cofactor (Literal.neg v) cover in
        acc
        + (if Cover.contains lo hi then 0 else 1)
        + if Cover.contains hi lo then 0 else 1)
      0 (Cover.support cover)

let pos_rebuild ~q_not ~r_not =
  let q_cubes = Cover.cubes q_not and r_cubes = Cover.cubes r_not in
  match Truth_table.space (q_cubes @ r_cubes) with
  | Some vars ->
    let q = Truth_table.of_cubes vars q_cubes
    and r = Truth_table.of_cubes vars r_cubes in
    Truth_table.region_literals [ r; Truth_table.union q r ]
    + if List.for_all (Truth_table.covers r) q_cubes then 0 else 1
  | None ->
    required_literals r_not + if Cover.contains r_not q_not then 0 else 1

let pos ~f ~d =
  let f_cubes = Cover.cubes f and d_cubes = Cover.cubes d in
  match Truth_table.space (f_cubes @ d_cubes) with
  | Some vars ->
    (* [f] needs no literal of a variable only [d] names. *)
    min (required_literals f)
      (Truth_table.region_literals
         ~region:(Truth_table.of_cubes vars d_cubes)
         [ Truth_table.of_cubes vars f_cubes ]
      + 1)
  | None ->
    let d_vars = Cover.support d in
    let shared, out =
      List.partition (fun v -> List.mem v d_vars) (functional_support f)
    in
    List.length out + if shared = [] then 0 else 1

let remainder ?absorber cubes =
  let strictly_inside c k = (not (Cube.equal c k)) && Cube.contained_by c k in
  let absorbed c =
    match absorber with Some l -> Cube.mem l c | None -> false
  in
  let lits =
    List.fold_left
      (fun acc c ->
        if absorbed c || List.exists (strictly_inside c) cubes then acc
        else Cube.fold_literals (fun acc l -> Literal.code l :: acc) acc c)
      [] cubes
  in
  List.length (List.sort_uniq Int.compare lits)
