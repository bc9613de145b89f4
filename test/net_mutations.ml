(* Seeded random mutation sequences over multilevel networks, shared by
   the tests that compare the network's structural queries (and the
   analyses built on them) against frozen copies of their earlier
   implementations. One step adds a node, rewires one, removes a
   fanout-free one, or runs a few steps as a [Network.attempt] that
   commits or rolls back; removals are the most frequent, so sequences
   leave many removed ids behind. *)

open Twolevel
module Network = Logic_network.Network
module Rng = Rar_util.Rng

(* A cover over variables [0 .. k-1]. Each literal is kept with
   probability 2/3, so covers of several cubes usually name every
   variable (the identity remap) and single cubes often skip some. *)
let random_cover rng k =
  if k = 0 then if Rng.bool rng then Cover.one else Cover.zero
  else
    let cube () =
      Cube.of_literals_exn
        (List.filter_map
           (fun v ->
             if Rng.int rng 3 = 0 then None
             else Some (Literal.make v (Rng.bool rng)))
           (List.init k Fun.id))
    in
    Cover.of_cubes (List.init (1 + Rng.int rng 3) (fun _ -> cube ()))

(* [k] fanins drawn with replacement, so duplicates occur. *)
let random_fanins rng net k =
  let ids = Array.of_list (List.sort Int.compare (Network.node_ids net)) in
  Array.init k (fun _ -> ids.(Rng.int rng (Array.length ids)))

let logic_ids net = List.sort Int.compare (Network.logic_ids net)

let pick_opt rng = function [] -> None | l -> Some (Rng.pick rng l)

let default_set_function net id ~fanins cover =
  try Network.set_function net id ~fanins cover with Network.Cyclic _ -> ()

exception Abandoned

(* Apply one random mutation. [set_function] performs every rewire and
   must leave the network acyclic. One step in eight is a
   [Network.attempt] of one to three steps (attempts nest) that commits,
   rolls back, or raises [Abandoned], at random. *)
let rec step ?(set_function = default_set_function) rng net =
  match Rng.int rng 8 with
  | 0 | 1 ->
    let k = 1 + Rng.int rng 4 in
    let fanins = random_fanins rng net k in
    ignore (Network.add_logic net ~fanins (random_cover rng k))
  | 2 | 3 -> (
    match pick_opt rng (logic_ids net) with
    | None -> ()
    | Some id ->
      let k = 1 + Rng.int rng 4 in
      let fanins = random_fanins rng net k in
      set_function net id ~fanins (random_cover rng k))
  | 4 | 5 | 6 -> (
    let removable =
      List.filter
        (fun id ->
          Network.fanout_count net id = 0 && not (Network.is_output net id))
        (logic_ids net)
    in
    match pick_opt rng removable with
    | None -> ()
    | Some id -> Network.remove_node net id)
  | _ -> (
    let body () =
      for _ = 0 to Rng.int rng 3 do
        step ~set_function rng net
      done;
      match Rng.int rng 3 with
      | 0 -> Some ()
      | 1 -> None
      | _ -> raise Abandoned
    in
    try ignore (Network.attempt net body) with Abandoned -> ())

(* A seed names a whole network and mutation sequence; a smaller seed
   is not a simpler case, so failures are reported unshrunk. *)
let gen_seed = QCheck2.Gen.(no_shrink (int_range 1 1_000_000))

(* A random network of 5 inputs and [3 .. 12] nodes, with the
   generator that drives its mutations. *)
let initial seed =
  let rng = Rng.create seed in
  let net =
    Bench_suite.Generator.random ~seed ~n_inputs:5
      ~n_nodes:(3 + Rng.int rng 10) ~n_outputs:2 ()
  in
  (rng, net)

(* Apply [steps] mutations; [after_step] runs after each one. *)
let mutate ?set_function ?(after_step = fun _ -> ()) rng net ~steps =
  for _ = 1 to steps do
    step ?set_function rng net;
    after_step net
  done
