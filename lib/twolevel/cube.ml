(* A cube is a packed Cube_kernel code set: two bits per variable, at most
   one phase of each variable present. All predicates are the kernel's
   word-parallel loops; this module only translates between literals and
   codes. *)
type t = Cube_kernel.t

let top = Cube_kernel.top

let of_literals lits = Cube_kernel.of_codes (List.map Literal.code lits)

let of_literals_exn lits =
  match of_literals lits with
  | Some c -> c
  | None -> invalid_arg "Cube.of_literals_exn: contradictory literals"

let kernel t = t

let of_kernel_exn k =
  match Cube_kernel.of_codes (Cube_kernel.codes k) with
  | Some c -> c
  | None -> invalid_arg "Cube.of_kernel_exn: contradictory code set"

let rename = Cube_kernel.rename

let rename_opt f t =
  let r = Cube_kernel.rename f t in
  if Cube_kernel.consistent r then Some r else None

let fold_literals f acc t =
  Cube_kernel.fold_codes (fun acc code -> f acc (Literal.of_code code)) acc t

let literals t = List.rev (fold_literals (fun acc lit -> lit :: acc) [] t)

let size = Cube_kernel.size

let hash = Cube_kernel.hash

let is_top = Cube_kernel.is_top

let mem lit t = Cube_kernel.mem_code (Literal.code lit) t


let phase_of_var t v =
  if Cube_kernel.mem_code (2 * v) t then Some true
  else if Cube_kernel.mem_code ((2 * v) + 1) t then Some false
  else None

let contained_by c1 c2 = Cube_kernel.subset c2 c1

let intersect = Cube_kernel.merge

let distance = Cube_kernel.distance

let remove_var = Cube_kernel.remove_var

let remove_literal lit t = Cube_kernel.remove_code (Literal.code lit) t

let remove_all t strip = Cube_kernel.diff t strip

let add_literal lit t = Cube_kernel.add_code (Literal.code lit) t

let cofactor lit t =
  let code = Literal.code lit in
  if Cube_kernel.mem_code (code lxor 1) t then None
  else Some (Cube_kernel.remove_code code t)

let algebraic_div c d =
  if Cube_kernel.subset d c then Some (Cube_kernel.diff c d) else None

let common = Cube_kernel.inter

let support t =
  List.rev
    (Cube_kernel.fold_codes
       (fun acc code ->
         let v = code lsr 1 in
         match acc with
         | v' :: _ when v' = v -> acc
         | _ -> v :: acc)
       [] t)

let eval assign t =
  Cube_kernel.for_all_codes
    (fun code -> assign (code lsr 1) = (code land 1 = 0))
    t

let compare = Cube_kernel.compare

let equal = Cube_kernel.equal

let to_string ?names t =
  if is_top t then "1"
  else
    String.concat ""
      (List.map (fun lit -> Literal.to_string ?names lit) (literals t))
