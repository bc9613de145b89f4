module Network = Logic_network.Network
module Dirty = Logic_network.Dirty
module Node_set = Network.Node_set

type phase = Pos | Neg | Both

type meth = Algebraic | Boolean

type target = Divisor of Network.node_id * phase | Pool of Network.node_id list

type reads = All_nodes | Nodes of Network.node_id array

type entry = { at : int; reads : reads; burn : int }

(* [d_gen] is the caller's refinement generation (0 for the division
   drivers): the kresub driver bumps it whenever a counterexample
   refines the signature vectors, which retires every scan recorded
   against the coarser signatures without touching the Dirty clock. *)
type dividend_entry = { d_at : int; d_gen : int; d_burn : int; d_units : int }

type key = Network.node_id * meth * target

type t = {
  dirty : Dirty.t;
  failures : (key, entry) Hashtbl.t;
  dividends : (Network.node_id, dividend_entry) Hashtbl.t;
}

let reads_of_set s = Nodes (Array.of_list (Node_set.elements s))

let all_nodes = All_nodes

let create dirty =
  { dirty; failures = Hashtbl.create 61; dividends = Hashtbl.create 97 }

let dirty t = t.dirty

let fresh t at = function
  | All_nodes -> Dirty.clock t.dirty = at
  | Nodes arr ->
    let ok = ref true in
    let i = ref 0 in
    let n = Array.length arr in
    while !ok && !i < n do
      if Dirty.stamp t.dirty arr.(!i) > at then ok := false;
      incr i
    done;
    !ok

let replay_failure t ~f target ~meth =
  let key = (f, meth, target) in
  match Hashtbl.find_opt t.failures key with
  | None -> None
  | Some e ->
    if fresh t e.at e.reads then Some e.burn
    else begin
      Hashtbl.remove t.failures key;
      None
    end

let record_failure t ~f target ~meth ~reads ~burn =
  Hashtbl.replace t.failures (f, meth, target)
    { at = Dirty.clock t.dirty; reads; burn }

let replay_dividend ?(gen = 0) t ~f =
  match Hashtbl.find_opt t.dividends f with
  | None -> None
  | Some e ->
    if Dirty.clock t.dirty = e.d_at && e.d_gen = gen then
      Some (e.d_burn, e.d_units)
    else begin
      Hashtbl.remove t.dividends f;
      None
    end

let record_dividend ?(gen = 0) t ~f ~at ~burn ~units =
  Hashtbl.replace t.dividends f
    { d_at = at; d_gen = gen; d_burn = burn; d_units = units }

let attempt t net ~counters ~f target ~meth ~reads run =
  match replay_failure t ~f target ~meth with
  | Some burn ->
    Rar_util.Counters.add counters.Rar_util.Counters.memo_hits 1;
    if burn > 0 then Network.reserve_ids net burn;
    false
  | None ->
    Rar_util.Counters.add counters.Rar_util.Counters.memo_misses 1;
    let id0 = Network.id_limit net in
    let ok = Dirty.speculating t.dirty ~committed:Fun.id run in
    if not ok then
      record_failure t ~f target ~meth ~reads:(reads ())
        ~burn:(Network.id_limit net - id0);
    ok
