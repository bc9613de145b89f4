(* Invariant: the cube list is sorted and duplicate-free, which makes
   structural comparison canonical for syntactically equal covers. *)
type t = Cube.t list

let canonical cubes = List.sort_uniq Cube.compare cubes

let zero = []

let one = [ Cube.top ]

let of_cubes cubes = canonical cubes

let cubes t = t

let is_zero t = t = []

let is_one t = List.exists Cube.is_top t

let cube_count = List.length

let literal_count t = List.fold_left (fun acc c -> acc + Cube.size c) 0 t

let support t =
  List.sort_uniq Int.compare (List.concat_map Cube.support t)

let union t1 t2 = canonical (t1 @ t2)

(* Drop cubes contained by another cube of the list (single-cube
   containment). Keeps the first of two equal cubes. *)
let scc cubes =
  let rec keep acc = function
    | [] -> List.rev acc
    | c :: rest ->
      let absorbed_by other =
        (not (Cube.equal c other)) && Cube.contained_by c other
      in
      if List.exists absorbed_by acc || List.exists absorbed_by rest then
        keep acc rest
      else keep (c :: acc) rest
  in
  keep [] (canonical cubes)

let single_cube_containment = scc

let product t1 t2 =
  let pairs =
    List.concat_map
      (fun c1 -> List.filter_map (fun c2 -> Cube.intersect c1 c2) t2)
      t1
  in
  scc pairs

let product_cube c t = scc (List.filter_map (Cube.intersect c) t)

let cofactor lit t = canonical (List.filter_map (Cube.cofactor lit) t)

let cofactor_cube c t =
  let cof cube =
    (* cube cofactored by c: 0 if they conflict, else drop c's literals. *)
    match Cube.intersect cube c with
    | None -> None
    | Some _ -> Some (Cube.remove_all cube c)
  in
  canonical (List.filter_map cof t)

(* A table over at most [Truth_table.max_vars] variables answers each
   query with a few word operations; wider covers fall back to
   tautology of the cofactor. *)
let containment t =
  match Truth_table.space t with
  | Some vars -> Truth_table.covers (Truth_table.of_cubes vars t)
  | None -> fun c -> Tautology.check (cofactor_cube c t)

let contains_cube = containment

let contains t g = List.for_all (containment t) g

let equivalent t1 t2 = contains t1 t2 && contains t2 t1

let eval assign t = List.exists (Cube.eval assign) t

let map_vars f t =
  let rename cube =
    match Cube.rename_opt f cube with
    | Some c -> c
    | None -> invalid_arg "Cube.of_literals_exn: contradictory literals"
  in
  canonical (List.map rename t)

let rename_vars f t = canonical (List.filter_map (Cube.rename_opt f) t)

(* Cube order is the kernel's list-lexicographic order, so this matches
   the seed's [Stdlib.compare] on sorted literal-code lists exactly. *)
let compare = List.compare Cube.compare

let equal t1 t2 = compare t1 t2 = 0

let to_string ?names t =
  match t with
  | [] -> "0"
  | _ -> String.concat " + " (List.map (Cube.to_string ?names) t)
