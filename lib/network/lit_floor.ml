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

let required_literals cover =
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
  required_literals r_not + if Cover.contains r_not q_not then 0 else 1

let pos net ~f ~d =
  let f_fanins = Network.fanins net f and d_fanins = Network.fanins net d in
  if Array.mem d f_fanins then 0
  else begin
    let out = ref 0 and shared = ref false in
    List.iter
      (fun v ->
        if Array.mem f_fanins.(v) d_fanins then shared := true else incr out)
      (functional_support (Network.cover net f));
    !out + if !shared then 1 else 0
  end

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
