(* Output checks, run outside the timed region.

   Each check says how strong it was: [bdd] (formal, BDD), [exhaustive]
   (all input patterns simulated) or [sampled] (random simulation; a
   pass means no difference was found). A check that raises counts as a
   failure. *)

module Network = Logic_network.Network
module Aig = Logic_network.Aig
module Equiv = Logic_sim.Equiv

type kind = Bdd | Exhaustive | Sampled

(* Largest input count the BDD check is tried on. The planted circuits
   of the suite's profiles have at most 42 inputs and their BDDs stay
   small; wider networks go to [Equiv.check]. *)
let bdd_max_inputs = 48

type tally = {
  mutable bdd : int;
  mutable exhaustive : int;
  mutable sampled : int;
  mutable failed : int;
}

let tally () = { bdd = 0; exhaustive = 0; sampled = 0; failed = 0 }

let count tally kind ok =
  (match kind with
  | Bdd -> tally.bdd <- tally.bdd + 1
  | Exhaustive -> tally.exhaustive <- tally.exhaustive + 1
  | Sampled -> tally.sampled <- tally.sampled + 1);
  if not ok then tally.failed <- tally.failed + 1

let equivalent = function
  | Equiv.Equivalent -> true
  | Equiv.Counterexample _ -> false

(* [reference] and [result] are SOP networks with the same interface. *)
let sop tally reference result =
  let n = List.length (Network.inputs reference) in
  let kind, ok =
    if n <= bdd_max_inputs then
      (Bdd, try Robdd.Of_network.equivalent reference result with _ -> false)
    else
      ( (if n <= 14 then Exhaustive else Sampled),
        try equivalent (Equiv.check reference result) with _ -> false )
  in
  count tally kind ok

(* Sampled simulation through the Network bridge. *)
let aig tally reference result =
  let ok =
    try
      equivalent
        (Equiv.random ~words:256 (Aig.to_network reference)
           (Aig.to_network result))
    with _ -> false
  in
  count tally Sampled ok

let fail tally = tally.failed <- tally.failed + 1

let summary tally =
  Printf.sprintf "%d bdd, %d exhaustive, %d sampled, %d failed" tally.bdd
    tally.exhaustive tally.sampled tally.failed
