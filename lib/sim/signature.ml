module Network = Logic_network.Network
module Dont_care = Logic_network.Dont_care
module Node_set = Network.Node_set

type t = {
  net : Network.t;
  words : int;
  seed : int;
  all_rows : int64 array;
  (* Node id -> signature and input id -> stimulus, [absent] where the
     id has none. Both grow by doubling; neither is ever iterated. *)
  mutable values : int64 array array;
  mutable patterns : int64 array array;
  mutable observer : Network.observer_id option;
  mutable dirty : Node_set.t;
  (* External don't cares: rows matching an EXCDC cube are outside the
     care set and masked out of the divisor-filter predicates. The view
     never changes and the input stimulus changes only in [refine], so
     the mask is computed on first use and again after each
     refinement. *)
  dc : Dont_care.t;
  mutable care : int64 array option;
  mutable care_fresh : bool;
  mutable care_count : int;  (* care rows: [64 * words] without a mask *)
  (* Counterexample rows, newest first: row [j] (bit [j mod 64] of word
     [j / 64]) of every input's stimulus holds assignment [j]. *)
  mutable rows : bool array list;
}

let default_words = 8

let words t = t.words

(* A real entry has [words > 0] words, so the empty array marks a free
   slot. *)
let absent : int64 array = [||]

let slot store id =
  if id >= 0 && id < Array.length store then store.(id) else absent

let store_grown store id =
  let n = Array.length store in
  if id < n then store
  else begin
    let cap = ref (max 16 n) in
    while !cap <= id do
      cap := 2 * !cap
    done;
    let grown = Array.make !cap absent in
    Array.blit store 0 grown 0 n;
    grown
  end

let set_value t id v =
  t.values <- store_grown t.values id;
  t.values.(id) <- v

let set_pattern t id v =
  t.patterns <- store_grown t.patterns id;
  t.patterns.(id) <- v

(* Each input's stimulus is derived from (seed, id) alone, so signatures
   are reproducible regardless of the order inputs are first queried in —
   an incremental engine and a fresh one built after the same mutations
   agree bit for bit. *)
let pattern t id =
  let v = slot t.patterns id in
  if v != absent then v
  else begin
    let rng = Rar_util.Rng.create (t.seed lxor ((id + 1) * 0x9e3779b9)) in
    let v = Array.init t.words (fun _ -> Rar_util.Rng.int64 rng) in
    set_pattern t id v;
    v
  end

let resimulate t id =
  let value =
    if Network.is_input t.net id then pattern t id
    else begin
      let fanin_values =
        Array.map (fun fi -> t.values.(fi)) (Network.fanins t.net id)
      in
      Simulate.eval_cover ~words:t.words (Network.cover t.net id) ~fanin_values
    end
  in
  set_value t id value

(* An open attempt holds its notifications, so [dirty] does not yet
   name what it changed: a read there would be stale. *)
let refresh t =
  if Network.in_attempt t.net then
    invalid_arg "Signature: read inside an open attempt";
  if not (Node_set.is_empty t.dirty) then begin
    let seeds =
      Node_set.filter (Network.mem t.net) t.dirty |> Node_set.elements
    in
    (* Values depend only on fanin values, so any topological order
       of the cone gives the same signatures as the global one. *)
    List.iter (resimulate t) (Network.fanout_cone_order t.net seeds);
    t.dirty <- Node_set.empty
  end

(* Overwrite the next free row of every input's stimulus with
   [assignment]. The input patterns are replaced, never mutated, so
   signatures handed out earlier keep their values; the inputs are marked
   dirty so the next query re-simulates their fanout only. *)
let refine t assignment =
  let row = List.length t.rows in
  if row >= 64 * t.words then invalid_arg "Signature.refine: no free row";
  let w = row / 64 and bit = Int64.shift_left 1L (row land 63) in
  List.iteri
    (fun i id ->
      let v = Array.copy (pattern t id) in
      v.(w) <-
        (if assignment.(i) then Int64.logor v.(w) bit
         else Int64.logand v.(w) (Int64.lognot bit));
      set_pattern t id v;
      t.dirty <- Node_set.add id t.dirty)
    (Network.inputs t.net);
  t.rows <- assignment :: t.rows;
  t.care_fresh <- false

let rows t = List.rev t.rows

let default_seed = 0x516e41

let create ?(seed = default_seed) ?(words = default_words)
    ?(dc = Dont_care.empty) net =
  if words <= 0 then invalid_arg "Signature.create: words must be positive";
  let t =
    {
      net;
      words;
      seed;
      all_rows = Array.make words Int64.minus_one;
      values = Array.make (max 16 (Network.id_limit net)) absent;
      patterns = Array.make 16 absent;
      observer = None;
      dirty = Node_set.empty;
      dc;
      care = None;
      care_fresh = false;
      care_count = 64 * words;
      rows = [];
    }
  in
  t.observer <-
    Some
      (Network.on_mutation net (fun m ->
           match m with
           | Network.Node_added id | Network.Function_changed id ->
             t.dirty <- Node_set.add id t.dirty
           | Network.Node_removed id ->
             if id < Array.length t.values then t.values.(id) <- absent;
             t.dirty <- Node_set.remove id t.dirty));
  List.iter (resimulate t) (Network.topological net);
  t

let detach t =
  match t.observer with
  | Some id ->
    Network.remove_observer t.net id;
    t.observer <- None
  | None -> ()

let signature t id =
  refresh t;
  let v = slot t.values id in
  if v != absent then v
  else if id < 0 || not (Network.mem t.net id) then
    invalid_arg "Signature.signature: unknown node"
  else begin
    (* A node created while no refresh ran (defensive; observers normally
       catch every addition). *)
    t.dirty <- Node_set.add id t.dirty;
    refresh t;
    slot t.values id
  end

let popcount64 (x : int64) =
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    add
      (logand x 0x3333333333333333L)
      (logand (shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = logand (add x (shift_right_logical x 4)) 0x0f0f0f0f0f0f0f0fL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

let popcount v = Array.fold_left (fun acc w -> acc + popcount64 w) 0 v

(* Masked primitives: only the rows of [m] participate. Without a view
   the mask is [all_rows], so these serve every query. Each keeps its
   own loop: passing the [Int64] operator as a closure would box. *)
let overlap_care m a b =
  let acc = ref 0 in
  for w = 0 to Array.length a - 1 do
    acc := !acc + popcount64 (Int64.logand m.(w) (Int64.logand a.(w) b.(w)))
  done;
  !acc

let overlap_not_care m a b =
  let acc = ref 0 in
  for w = 0 to Array.length a - 1 do
    acc :=
      !acc
      + popcount64 (Int64.logand m.(w) (Int64.logand a.(w) (Int64.lognot b.(w))))
  done;
  !acc

let intersects_care m a b =
  let n = Array.length a in
  let rec scan w =
    w < n
    && (Int64.logand m.(w) (Int64.logand a.(w) b.(w)) <> 0L || scan (w + 1))
  in
  scan 0

let intersects_not_care m a b =
  let n = Array.length a in
  let rec scan w =
    w < n
    && (Int64.logand m.(w) (Int64.logand a.(w) (Int64.lognot b.(w))) <> 0L
       || scan (w + 1))
  in
  scan 0

(* The cached care mask. [None] means "no masking" (no cube of the
   view binds to an input) — that path is byte-identical to a DC-less
   engine. *)
let care_mask t =
  if not t.care_fresh then begin
    t.care_fresh <- true;
    t.care <-
      Dont_care.care_mask t.dc ~words:t.words ~stimulus:(fun name ->
          Option.map (pattern t) (Network.find_input t.net name));
    t.care_count <-
      (match t.care with None -> 64 * t.words | Some m -> popcount m)
  end;
  t.care

let care_rows t = Option.value (care_mask t) ~default:t.all_rows

let subset_on_care t a b = not (intersects_not_care (care_rows t) a b)

(* One popcount per word: the care rows split into those where the two
   signatures differ and those where they agree. *)
let agreement t a b =
  let m = care_rows t in
  let differ = ref 0 in
  for w = 0 to Array.length a - 1 do
    differ :=
      !differ + popcount64 (Int64.logand m.(w) (Int64.logxor a.(w) b.(w)))
  done;
  max (t.care_count - !differ) !differ

(* Rows outside the care set are wildcards: a DC-aware rewrite may give
   any node either value there, so such a row can always supply the
   overlap a division needs. Admission tests must therefore treat the
   masked overlap as a lower bound and pass whenever the sample holds a
   don't-care row — pruning harder than the DC-less filter would break
   the monotonicity discipline (a view may only ever unlock rewrites).
   Read after [care_rows], which refreshes [care_count]. *)
let has_slack t = t.care_count < 64 * t.words

let phase_compatible t ~phase ~f ~d =
  let sf = signature t f and sd = signature t d in
  let m = care_rows t in
  (if phase then intersects_care m sf sd else intersects_not_care m sf sd)
  || has_slack t

let compatible t ~use_complement ~f ~d =
  let sf = signature t f and sd = signature t d in
  let m = care_rows t in
  intersects_care m sf sd
  || (use_complement && intersects_not_care m sf sd)
  || has_slack t

let score t ~use_complement ~f ~d =
  let sf = signature t f and sd = signature t d in
  let m = care_rows t in
  let direct = overlap_care m sf sd in
  if use_complement then max direct (overlap_not_care m sf sd) else direct

(* Insertion into bounded arrays kept in rank order. An entry that does
   not beat the current [k]-th is dropped at once, and an equal score
   never moves an earlier entry, so ties stay in pool order. *)
let rank ~k ~score pool =
  let k = min (max k 0) (Array.length pool) in
  if k = 0 then [||]
  else begin
    let kept = Array.make k pool.(0) and scores = Array.make k 0 in
    let n = ref 0 in
    Array.iter
      (fun d ->
        let s = score d in
        if !n < k || s > scores.(k - 1) then begin
          let i = ref (min !n (k - 1)) in
          while !i > 0 && s > scores.(!i - 1) do
            kept.(!i) <- kept.(!i - 1);
            scores.(!i) <- scores.(!i - 1);
            decr i
          done;
          kept.(!i) <- d;
          scores.(!i) <- s;
          if !n < k then incr n
        end)
      pool;
    kept
  end
