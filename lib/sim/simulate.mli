(** Bit-parallel (64-way) logic simulation of networks. *)

type valuation = (Logic_network.Network.node_id, int64 array) Hashtbl.t
(** One machine word array per node; bit [b] of word [w] is the node value
    under pattern [64*w + b]. *)

val eval_cover :
  words:int -> Twolevel.Cover.t -> fanin_values:int64 array array -> int64 array
(** Evaluate one SOP cover bit-parallel; [fanin_values.(v)] is the word
    array of the cover's variable [v]. Shared by {!run} and the
    incremental {!Signature} engine. *)

val run :
  Logic_network.Network.t ->
  words:int ->
  input_values:(Logic_network.Network.node_id -> int64 array) ->
  valuation
(** Simulate all nodes under [64 * words] patterns. *)

val random_inputs :
  Rar_util.Rng.t -> words:int -> Logic_network.Network.node_id -> int64 array
(** Fresh uniform random input patterns (memoised per node so repeated
    queries agree). *)

val exhaustive_words : int -> int
(** Number of 64-bit words needed to enumerate all assignments of [n]
    inputs ([n] ≤ 26 to stay within memory). *)

val exhaustive_inputs :
  Logic_network.Network.t -> Logic_network.Network.node_id -> int64 array
(** Canonical exhaustive patterns: input [i] (in {!Logic_network.Network.inputs}
    order) toggles with period [2^(i+1)]. *)
