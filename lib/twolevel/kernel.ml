let common_cube cover =
  match Cover.cubes cover with
  | [] -> Cube.top
  | first :: rest -> List.fold_left Cube.common first rest

let make_cube_free cover =
  let c = common_cube cover in
  if Cube.is_top c then (c, cover)
  else
    let stripped =
      List.map (fun cube -> Cube.remove_all cube c) (Cover.cubes cover)
    in
    (c, Cover.of_cubes stripped)

let is_cube_free cover =
  Cover.cube_count cover >= 2 && Cube.is_top (common_cube cover)

(* Quotient of the cover by a single literal (cubes containing the literal,
   with it removed). *)
let literal_quotient lit cover =
  Cover.of_cubes
    (List.filter_map
       (fun c -> if Cube.mem lit c then Some (Cube.remove_literal lit c) else None)
       (Cover.cubes cover))

let literal_universe cover =
  let lits =
    List.fold_left
      (fun acc cube -> Cube.fold_literals (fun acc l -> l :: acc) acc cube)
      [] (Cover.cubes cover)
  in
  List.sort_uniq Literal.compare lits

(* KERNEL1 (Brayton-McMullen): recursively divide by literals in increasing
   index order. A subtree is skipped when the stripped common cube contains
   a literal of smaller index — that kernel was already produced along the
   smaller literal's branch. *)
let all cover =
  let lits = Array.of_list (literal_universe cover) in
  let index_of lit =
    let rec go i = if Literal.equal lits.(i) lit then i else go (i + 1) in
    go 0
  in
  let results = ref [] in
  let rec explore start cokernel g =
    if is_cube_free g then results := (cokernel, g) :: !results;
    for i = start to Array.length lits - 1 do
      let lit = lits.(i) in
      let occurrences =
        List.length (List.filter (Cube.mem lit) (Cover.cubes g))
      in
      if occurrences >= 2 then begin
        let c, q_free = make_cube_free (literal_quotient lit g) in
        let duplicate =
          List.exists (fun l -> index_of l < i) (Cube.literals c)
        in
        if not duplicate then begin
          match Cube.add_literal lit cokernel with
          | None -> ()
          | Some ck_with_lit ->
            begin
              match Cube.intersect ck_with_lit c with
              | None -> ()
              | Some ck -> explore (i + 1) ck q_free
            end
        end
      end
    done
  in
  explore 0 Cube.top cover;
  List.rev !results

let distinct_kernels cover =
  let ks = List.map snd (all cover) in
  List.sort_uniq Cover.compare ks
