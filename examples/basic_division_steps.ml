(* Basic Boolean division step by step, following the paper's Fig. 2 and
   its introductory example: f shrinks from 6 factored literals to 5 with
   an algebraic-strength substitution and to 4 using the full Boolean
   algorithm (division by the divisor's complement).

   Run with:  dune exec examples/basic_division_steps.exe *)

open Twolevel
module Network = Logic_network.Network
module Builder = Logic_network.Builder
module Lit_count = Logic_network.Lit_count

let fresh () =
  Builder.of_spec
    ~inputs:[ "a"; "b"; "c"; "d" ]
    ~nodes:[ ("D", "a + b"); ("f", "ad + bd + a'b'c") ]
    ~outputs:[ "f"; "D" ]

let () =
  let net = fresh () in
  let f = Builder.node net "f" and d = Builder.node net "D" in
  Printf.printf "Fig. 2(a): the dividend f and the divisor D.\n%s\n"
    (Network.to_string net);

  (* Step 1: the SOS split. Cubes of f contained in a cube of D form the
     region f1; the rest is the remainder. *)
  print_endline "Step 1 - SOS split (Definition SOS, Lemma 1):";
  let d_cubes = Logic_network.Lift.cubes net d in
  List.iter
    (fun cube ->
      let inside = List.exists (Cube.contained_by cube) d_cubes in
      Printf.printf "  %-8s -> %s\n"
        (Cube.to_string ~names:(Network.name net) cube)
        (if inside then "f1 (will be ANDed with D)" else "remainder"))
    (Logic_network.Lift.cubes net f);

  (* Step 2: one stuck-at test shown in detail, like Fig. 2(e). Testing
     the literal a (in cube a·d) stuck-at-1: the mandatory assignments
     force both of D's cubes to 0 while the bold AND needs D = 1. *)
  print_endline "\nStep 2 - one redundancy test in detail (cf. Fig. 2(e)):";
  let a = Builder.node net "a" and b = Builder.node net "b" in
  let engine = Atpg.Imply.create ~frozen:[ f ] net in
  print_endline "  assume a=0 (fault activation), d=1 (AND side input),";
  print_endline "  sibling cubes of f at 0, and D=1 (bold AND side input):";
  let outcome =
    match
      Atpg.Imply.assign_node engine a false;
      Atpg.Imply.assign_node engine (Builder.node net "d") true;
      (* Sibling cubes of f (canonical cube order: ad, a'b'c, bd). *)
      Atpg.Imply.assign_cube engine f 2 false (* cube b·d *);
      Atpg.Imply.assign_cube engine f 1 false (* cube a'b'c *);
      (* b follows from the sibling cube b·d being 0 with d = 1; then both
         of D's cubes evaluate to 0 while the bold AND demands D = 1. *)
      Atpg.Imply.assign_node engine d true
    with
    | () -> "no conflict"
    | exception Atpg.Imply.Conflict msg -> "CONFLICT: " ^ msg
  in
  Printf.printf "  b implied to %s; outcome: %s\n"
    (match Atpg.Imply.node_value engine b with
    | Some v -> string_of_bool v
    | None -> "unknown")
    outcome;
  print_endline "  => the wire a is redundant and is removed.";

  (* Step 3: the full division. *)
  print_endline "\nStep 3 - full basic division:";
  Printf.printf "  f before: %d factored literals\n" (Lit_count.node_factored net f);
  (match Booldiv.Basic_division.divide net ~f ~d with
  | None -> print_endline "  not applicable"
  | Some o -> Printf.printf "  %d wires removed\n" o.wires_removed);
  Printf.printf "  f = %s  (%d literals)\n"
    (let fanins = Network.fanins net f in
     Cover.to_string
       ~names:(fun v -> Network.name net fanins.(v))
       (Network.cover net f))
    (Lit_count.node_factored net f);

  (* Step 4: division by the complement captures the remaining a'b' = D'
     factor. *)
  print_endline "\nStep 4 - division by the complement D' (phase = false):";
  (match Booldiv.Basic_division.divide ~phase:false net ~f ~d with
  | None -> print_endline "  not applicable"
  | Some _ -> ());
  Printf.printf "  f = %s  (%d literals)\n"
    (let fanins = Network.fanins net f in
     Cover.to_string
       ~names:(fun v -> Network.name net fanins.(v))
       (Network.cover net f))
    (Lit_count.node_factored net f);
  Printf.printf "\nStill equivalent to the original: %b\n"
    (Logic_sim.Equiv.equivalent net (fresh ()))
