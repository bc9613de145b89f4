open Twolevel

type sop_result = {
  quotient : Cover.t;
  remainder : Cover.t;
}

type pos_result = {
  pos_quotient : Cover.t;
  pos_remainder : Cover.t;
}

(* Split f into the SOS part (cubes contained in some divisor cube, the
   initial quotient by Lemma 1) and the remainder. *)
let sos_split ~f ~d =
  List.partition
    (fun c -> List.exists (Cube.contained_by c) (Cover.cubes d))
    (Cover.cubes f)

let basic_sop ?(dc = Cover.zero) ~f ~d () =
  let f1, r = sos_split ~f ~d in
  if f1 = [] then None
  else begin
    let target = Cover.union f dc in
    let r = Cover.of_cubes r in
    (* Greedy literal removal: growing a quotient cube keeps the identity
       iff the grown cube ANDed with the divisor stays inside f ∪ dc. *)
    let shrink_cube cube =
      let rec go cube = function
        | [] -> cube
        | lit :: rest ->
          let candidate = Cube.remove_literal lit cube in
          if Cover.contains target (Cover.product_cube candidate d) then
            go candidate rest
          else go cube rest
      in
      go cube (Cube.literals cube)
    in
    let shrunk = List.map shrink_cube f1 in
    (* Drop quotient cubes already covered by the rest of the result. *)
    let rec drop_redundant kept = function
      | [] -> List.rev kept
      | cube :: rest ->
        let others = Cover.of_cubes (kept @ rest) in
        let covered_without =
          Cover.union (Cover.product others d) (Cover.union r dc)
        in
        if Cover.contains covered_without (Cover.product_cube cube d) then
          drop_redundant kept rest
        else drop_redundant (cube :: kept) rest
    in
    let quotient =
      Cover.single_cube_containment (Cover.of_cubes (drop_redundant [] shrunk))
    in
    if Cover.is_zero quotient then None
    else Some { quotient; remainder = r }
  end

let default_complement_limit = 1024

(* A cube of [f_not] inside a cube of [d_not] lies in [d]'s offset, so it
   is at distance >= 1 from every cube of [d]. *)
let has_disjoint_cube ~f_not ~d =
  List.exists
    (fun c -> List.for_all (fun k -> Cube.distance c k > 0) (Cover.cubes d))
    (Cover.cubes f_not)

(* [Minimize.complement f] names only variables of [f]'s cubes, so a
   cube of [d] naming none of them is at distance 0 from all its cubes. *)
let meets_support ~f ~d =
  let support = Cover.support f in
  List.for_all
    (fun k -> List.exists (fun v -> Cube.phase_of_var k v <> None) support)
    (Cover.cubes d)

let pos_complements ?(complement_limit = default_complement_limit) ~f ~d () =
  let ( let* ) = Option.bind in
  (* Shannon complements are correct but non-minimal; minimising them keeps
     the SOS split (and hence the reported factors) clean. *)
  let complement = Minimize.complement ~limit:complement_limit in
  if not (meets_support ~f ~d) then None
  else
    let* f_not = complement f in
    if not (has_disjoint_cube ~f_not ~d) then None
    else
      let* d_not = complement d in
      let* { quotient = q_not; remainder = r_not } =
        basic_sop ~f:f_not ~d:d_not ()
      in
      Some (q_not, r_not)

let pos_of_complements ?(complement_limit = default_complement_limit)
    (q_not, r_not) =
  let ( let* ) = Option.bind in
  let complement = Minimize.complement ~limit:complement_limit in
  let* pos_quotient = complement q_not in
  let* pos_remainder = complement r_not in
  Some { pos_quotient; pos_remainder }

let basic_pos ?complement_limit ~f ~d () =
  Option.bind
    (pos_complements ?complement_limit ~f ~d ())
    (pos_of_complements ?complement_limit)

let verify_pos ~f ~d { pos_quotient; pos_remainder } =
  let result = Cover.product (Cover.union pos_quotient d) pos_remainder in
  Cover.equivalent result f
