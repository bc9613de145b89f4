type t =
  | Const of bool
  | Lit of Literal.t
  | And of t list
  | Or of t list

let rec literal_count = function
  | Const _ -> 0
  | Lit _ -> 1
  | And parts | Or parts ->
    List.fold_left (fun acc p -> acc + literal_count p) 0 parts

let rec eval assign = function
  | Const b -> b
  | Lit lit -> assign (Literal.var lit) = Literal.is_pos lit
  | And parts -> List.for_all (eval assign) parts
  | Or parts -> List.exists (eval assign) parts

let of_cube cube =
  match Cube.literals cube with
  | [] -> Const true
  | [ lit ] -> Lit lit
  | lits -> And (List.map (fun l -> Lit l) lits)

let smart_and parts =
  match List.filter (fun p -> p <> Const true) parts with
  | [] -> Const true
  | [ p ] -> p
  | ps -> if List.mem (Const false) ps then Const false else And ps

let smart_or parts =
  match List.filter (fun p -> p <> Const false) parts with
  | [] -> Const false
  | [ p ] -> p
  | ps -> if List.mem (Const true) ps then Const true else Or ps

(* Most frequent literal of a cover, provided it occurs at least twice. *)
let best_literal cover =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun cube ->
      Cube.fold_literals
        (fun () lit ->
          let n = Option.value (Hashtbl.find_opt tbl lit) ~default:0 in
          Hashtbl.replace tbl lit (n + 1))
        () cube)
    (Cover.cubes cover);
  Hashtbl.fold
    (fun lit n best ->
      match best with
      | Some (_, bn) when bn >= n -> best
      | _ when n >= 2 -> Some (lit, n)
      | _ -> best)
    tbl None

(* Estimated flat-literal savings of rewriting f as q·d + r. The covered
   part costs K·Σ|q_i| + |q|·L flat and Σ|q_i| + L factored, where d has K
   cubes and L literals in total. *)
let kernel_savings q d =
  let q_lits = Cover.literal_count q in
  let d_cubes = Cover.cube_count d in
  let d_lits = Cover.literal_count d in
  ((d_cubes - 1) * q_lits) + ((Cover.cube_count q - 1) * d_lits)

(* Cap the number of kernel candidates examined per recursion step. *)
let max_kernel_candidates = 24

let best_kernel_divisor cover =
  let candidates =
    List.filteri (fun i _ -> i < max_kernel_candidates)
      (Kernel.distinct_kernels cover)
  in
  List.fold_left
    (fun best k ->
      if Cover.cube_count k < 2 then best
      else
        let q = Algebraic.quotient cover k in
        if Cover.is_zero q then best
        else
          let savings = kernel_savings q k in
          match best with
          | Some (_, _, best_savings) when best_savings >= savings -> best
          | _ when savings > 0 -> Some (k, q, savings)
          | _ -> best)
    None candidates

(* Quick factoring: strip the common cube, then divide by the most valuable
   kernel (falling back to the most frequent literal) and recurse on
   divisor, quotient and remainder. *)
let rec factor cover =
  if Cover.is_zero cover then Const false
  else if Cover.is_one cover then Const true
  else
    match Cover.cubes cover with
    | [ cube ] -> of_cube cube
    | _ ->
      let c, g = Kernel.make_cube_free cover in
      if not (Cube.is_top c) then smart_and [ of_cube c; factor g ]
      else begin
        match best_kernel_divisor cover with
        | Some (k, _, _) ->
          let q, r = Algebraic.divide cover k in
          smart_or [ smart_and [ factor q; factor k ]; factor r ]
        | None ->
          begin
            match best_literal cover with
            | None ->
              (* No sharing at all: flat sum of the cubes. *)
              smart_or (List.map of_cube (Cover.cubes cover))
            | Some (lit, _) ->
              let divisor = Cover.of_cubes [ Cube.of_literals_exn [ lit ] ] in
              let q, r = Algebraic.divide cover divisor in
              smart_or [ smart_and [ Lit lit; factor q ]; factor r ]
          end
      end

let of_cover = factor

(* Whole-network literal counts re-factor every node, most of them
   unchanged since the last count. A node's cover is over its own fanin
   positions, so nodes with the same local function share one entry and
   a network has far fewer distinct covers than nodes: the small table
   keeps its hit rate on networks larger than its cap. *)
let count_memo : int Cover_memo.t = Cover_memo.create ~cap:64

let count cover =
  Cover_memo.find_or_add count_memo 0 cover (fun () ->
      literal_count (of_cover cover))

let rec to_string ?names t =
  match t with
  | Const true -> "1"
  | Const false -> "0"
  | Lit lit -> Literal.to_string ?names lit
  | And parts ->
    let part p =
      match p with
      | Or _ -> "(" ^ to_string ?names p ^ ")"
      | Const _ | Lit _ | And _ -> to_string ?names p
    in
    String.concat "" (List.map part parts)
  | Or parts -> String.concat " + " (List.map (to_string ?names) parts)
