open Twolevel
module Network = Logic_network.Network

(* A lifted cube is a packed Cube_kernel code set over global signals:
   node id [n] owns the code pair (2n, 2n+1), with the positive phase on
   the odd code so that the kernel's list-lexicographic order reproduces
   the seed's [Stdlib.compare] on sorted [(id, phase)] pair lists
   ([false] sorted before [true]). Both phases of one node may appear —
   these are signal-literal sets, not logical cubes — so construction
   goes through the conflict-free [of_code_set]. *)
type t = Cube_kernel.t

let code_of id phase = (2 * id) + if phase then 1 else 0

let of_node_cube net id cube =
  let fanins = Network.fanins net id in
  Cube_kernel.of_code_set
    (Cube.fold_literals
       (fun acc lit ->
         code_of fanins.(Literal.var lit) (Literal.is_pos lit) :: acc)
       [] cube)

let of_node net id =
  List.map (of_node_cube net id) (Cover.cubes (Network.cover net id))

let of_cube_index net id i =
  match List.nth_opt (Cover.cubes (Network.cover net id)) i with
  | Some cube -> of_node_cube net id cube
  | None -> invalid_arg "Net_cube.of_cube_index: bad index"

let contained_by c k = Cube_kernel.subset k c

let disjoint a b = Cube_kernel.distance a b > 0

let signals t =
  List.rev
    (Cube_kernel.fold_codes
       (fun acc code -> (code lsr 1, code land 1 = 1) :: acc)
       [] t)

let compare = Cube_kernel.compare

let equal = Cube_kernel.equal

let to_string net t =
  if Cube_kernel.is_top t then "1"
  else
    String.concat ""
      (List.map
         (fun (id, phase) ->
           Network.name net id ^ if phase then "" else "'")
         (signals t))
