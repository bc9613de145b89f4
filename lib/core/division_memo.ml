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

(* The failure table is striped so worker domains of the sharded
   drivers can record and replay concurrently: each stripe owns a
   disjoint slice of the key space behind its own mutex, so two lookups
   only contend when their keys hash to the same stripe. 64 stripes is
   far above any realistic worker count, and the per-operation critical
   section is a single Hashtbl probe. *)
let n_stripes = 64

type stripe = { lock : Mutex.t; entries : (key, entry) Hashtbl.t }

type t = {
  dirty : Dirty.t;
  stripes : stripe array;
  div_lock : Mutex.t;
  dividends : (Network.node_id, dividend_entry) Hashtbl.t;
}

let reads_of_set s = Nodes (Array.of_list (Node_set.elements s))

let all_nodes = All_nodes

let create dirty =
  {
    dirty;
    stripes =
      Array.init n_stripes (fun _ ->
          { lock = Mutex.create (); entries = Hashtbl.create 61 });
    div_lock = Mutex.create ();
    dividends = Hashtbl.create 97;
  }

let dirty t = t.dirty

let stripe_of t key = t.stripes.(Hashtbl.hash key land (n_stripes - 1))

let with_lock lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

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
  let s = stripe_of t key in
  (* The freshness test reads Dirty stamps, which only the driver's
     domain advances and never during a parallel batch — so running it
     under the stripe lock cannot deadlock and keeps the
     probe-test-evict sequence atomic against a concurrent record. *)
  with_lock s.lock (fun () ->
      match Hashtbl.find_opt s.entries key with
      | None -> None
      | Some e ->
        if fresh t e.at e.reads then Some e.burn
        else begin
          Hashtbl.remove s.entries key;
          None
        end)

let record_failure t ~f target ~meth ~reads ~burn =
  let key = (f, meth, target) in
  let s = stripe_of t key in
  let e = { at = Dirty.clock t.dirty; reads; burn } in
  with_lock s.lock (fun () -> Hashtbl.replace s.entries key e)

let replay_dividend ?(gen = 0) t ~f =
  with_lock t.div_lock (fun () ->
      match Hashtbl.find_opt t.dividends f with
      | None -> None
      | Some e ->
        if Dirty.clock t.dirty = e.d_at && e.d_gen = gen then
          Some (e.d_burn, e.d_units)
        else begin
          Hashtbl.remove t.dividends f;
          None
        end)

let record_dividend ?(gen = 0) t ~f ~at ~burn ~units =
  with_lock t.div_lock (fun () ->
      Hashtbl.replace t.dividends f
        { d_at = at; d_gen = gen; d_burn = burn; d_units = units })

let attempt t net ~live ~counters ~f target ~meth ~reads run =
  match replay_failure t ~f target ~meth with
  | Some burn ->
    Rar_util.Counters.add counters.Rar_util.Counters.memo_hits 1;
    if burn > 0 then Network.reserve_ids net burn;
    false
  | None ->
    Rar_util.Counters.add counters.Rar_util.Counters.memo_misses 1;
    let id0 = Network.id_limit net in
    let ok =
      if live then Dirty.speculating t.dirty ~committed:Fun.id run else run ()
    in
    if not ok then
      record_failure t ~f target ~meth ~reads:(reads ())
        ~burn:(Network.id_limit net - id0);
    ok
