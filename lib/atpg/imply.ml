open Twolevel
module Network = Logic_network.Network
module Counters = Rar_util.Counters

exception Conflict of string

(* Three-valued node/cube state packed in bytes. *)
let v_unknown = '\000'

let v_false = '\001'

let v_true = '\002'

let encode v = if v then v_true else v_false

let decode = function
  | '\001' -> Some false
  | '\002' -> Some true
  | _ -> None

(* The engine is an arena: values live in dense byte arrays indexed by
   slot (cubes in one flat array laid out by [cube_off]), and every
   assignment is logged on an undo trail so the state between
   redundancy tests is restored in O(assignments) instead of rebuilding
   O(network) hashtables per test. The propagation queue is a ring
   buffer over slots, giving stable FIFO (levelized) implication order
   instead of the legacy LIFO cons-list.

   Only the nodes propagation can reach own a slot from the build: the
   region, the region's fanins and the inputs EXCDC cubes name (every
   node when there is no region). Everything propagation reads is
   resolved to slots then: a region cube's literals are slot codes
   [slot lsl 1 lor neg] (even = positive), region membership and frozen
   marks are per-slot bytes, and each slot lists the slots of its
   fanouts inside the region. Propagation never consults the network.
   A node outside that set gets a slot the first time an assignment
   names it; until then its only value is the one its cover fixes when
   it is constant, which the queries read from the network. *)
type t = {
  net : Network.t;
  region : Network.node_id list option;  (* [None]: every node *)
  mutable budget : Rar_util.Budget.t;
  counters : Counters.t option;
  (* External don't cares: each EXCDC cube is a forbidden input
     pattern, i.e. the clause ¬(cube) the environment guarantees.
     Resolved to slot codes at build time. *)
  dc : Logic_network.Dont_care.t;
  mutable dc_codes : int array array;
  mutable dc_watch : int array array; (* build slot -> watching cubes *)
  (* Structure mirrors the network at [built_revision]; [reset] rebuilds
     it when the network has mutated since. Shared by learn-copies. *)
  mutable built_revision : int;
  mutable built_limit : int;  (* [Network.id_limit] at the build *)
  (* Bumped by every build and reset: marks taken before the bump are
     stale (their trail positions no longer mean anything). *)
  mutable generation : int;
  (* Node id -> slot (-1 when none). Kept across builds: a build clears
     only the entries of the slots it drops. *)
  mutable slot : int array;
  (* Per-slot arrays have room for at least [nslots] slots, and
     [cube_val] for [cube_off.(nslots)] cubes: a slot added after the
     build may grow them. *)
  mutable node_of : int array;  (* slot -> node id *)
  mutable nslots : int;
  mutable is_input : Bytes.t;  (* slot -> 0/1 *)
  mutable in_region : Bytes.t;  (* slot -> 0/1 *)
  mutable region_fanouts : int array array;  (* slot -> its fanouts in region *)
  (* Flat cubes of slot [s]: [cube_off.(s)] up to [cube_off.(s + 1)]. *)
  mutable cube_off : int array;
  mutable cube_lits : int array array;  (* region cube -> its slot codes *)
  mutable base_queue : int array;  (* queue right after constant seeding *)
  (* Nodes whose value is never derived (the fault-carrying cone), as
     per-slot marks; [frozen_ids] remembers them across rebuilds. Only
     region slots and EXCDC inputs read the mark, and both are slotted
     at the build. *)
  mutable frozen : Bytes.t;
  mutable frozen_ids : Network.node_id list;
  (* Per-test state (private to each learn-copy). *)
  mutable node_val : Bytes.t;  (* slot -> value *)
  mutable cube_val : Bytes.t;  (* flat cube index -> value *)
  mutable queue : int array;  (* ring buffer of slots *)
  mutable q_head : int;
  mutable q_len : int;
  mutable queued : Bytes.t;  (* slot -> pending flag *)
  mutable trail : int array;  (* slot s as 2s, flat cube c as 2c + 1 *)
  mutable trail_len : int;
}

let slot_of t id =
  if id >= 0 && id < Array.length t.slot then t.slot.(id) else -1

let enqueue_slot t s =
  if Bytes.unsafe_get t.queued s = '\000' then begin
    Bytes.unsafe_set t.queued s '\001';
    let cap = Array.length t.queue in
    let tail = t.q_head + t.q_len in
    t.queue.(if tail >= cap then tail - cap else tail) <- s;
    t.q_len <- t.q_len + 1
  end

let mark_frozen t ids v =
  List.iter
    (fun id ->
      let s = slot_of t id in
      if s >= 0 then Bytes.set t.frozen s v)
    ids

let count field t =
  match t.counters with Some c -> Counters.add (field c) 1 | None -> ()

(* A cover with no cube or with the top cube is a constant: its value
   holds unconditionally and is seeded at build time. *)
let constant_of_cover cover =
  if Cover.is_zero cover then Some false
  else if Cover.is_one cover then Some true
  else None

(* The value a node without a slot holds: the constant its cover fixes. *)
let unslotted_value t id =
  if
    id < t.built_limit && Network.mem t.net id
    && not (Network.is_input t.net id)
  then constant_of_cover (Network.cover t.net id)
  else None

(* Literal codes of [cube] over the node's fanins, resolved to slots:
   the order stays the cube's (by fanin index). *)
let slot_codes slot fanins cube =
  let codes = Cube_kernel.codes_array (Cube.kernel cube) in
  Array.iteri
    (fun i code ->
      codes.(i) <- (slot.(fanins.(code lsr 1)) lsl 1) lor (code land 1))
    codes;
  codes

(* Resolve the EXCDC cubes to slot codes, and each input slot to the
   cubes watching it. *)
let resolve_dc t cubes =
  let dc_codes =
    Array.of_list
      (List.map
         (fun cube ->
           Array.of_list
             (List.map
                (fun (id, phase) ->
                  (t.slot.(id) lsl 1) lor if phase then 0 else 1)
                cube))
         cubes)
  in
  if Array.length dc_codes = 0 then ([||], [||])
  else begin
    let watch = Array.make (max 1 t.nslots) [] in
    Array.iteri
      (fun c codes ->
        Array.iter
          (fun code -> watch.(code lsr 1) <- c :: watch.(code lsr 1))
          codes)
      dc_codes;
    (dc_codes, Array.map (fun l -> Array.of_list (List.rev l)) watch)
  end

(* The node ids a build slots, ascending, and whether each lies in the
   region: every node when there is no region, else the region, the
   region's fanins and the EXCDC inputs. [t.slot] marks them while they
   are gathered: -3 for a region node, -2 for another. *)
let gather t dc_cubes =
  let net = t.net in
  let limit = Network.id_limit net in
  match t.region with
  | None ->
    let ids = ref [] in
    for id = limit - 1 downto 0 do
      if Network.mem net id then ids := id :: !ids
    done;
    let ids = Array.of_list !ids in
    (ids, Array.make (Array.length ids) true)
  | Some region ->
    let gathered = ref [] in
    let mark v id =
      if t.slot.(id) = -1 then begin
        t.slot.(id) <- v;
        gathered := id :: !gathered
      end
    in
    List.iter (fun id -> if Network.mem net id then mark (-3) id) region;
    List.iter
      (fun id ->
        if t.slot.(id) = -3 && not (Network.is_input net id) then
          Array.iter (mark (-2)) (Network.fanins net id))
      !gathered;
    List.iter (List.iter (fun (id, _) -> mark (-2) id)) dc_cubes;
    let ids = Array.of_list (List.sort Int.compare !gathered) in
    (ids, Array.map (fun id -> t.slot.(id) = -3) ids)

(* (Re)build the arena from the network's current structure and seed the
   constant nodes: their value holds unconditionally, and a node whose
   only fanins are constants would otherwise never be examined. Matching
   the legacy [create], the constants' region fanouts are left pending on
   the queue for the first propagation run to drain. Slots follow
   ascending node ids; a first pass numbers them and sizes the cube
   array, a second fills it. *)
let build t =
  let net = t.net in
  let limit = Network.id_limit net in
  for s = 0 to t.nslots - 1 do
    t.slot.(t.node_of.(s)) <- -1
  done;
  if Array.length t.slot < limit then
    t.slot <- Array.make (max limit (2 * Array.length t.slot)) (-1);
  (* The EXCDC cubes as (input id, phase) lists; a cube naming a signal
     that is not a primary input of this network is dropped. *)
  let dc_cubes = Logic_network.Dont_care.bind t.dc (Network.find_input net) in
  let ids, region_mask = gather t dc_cubes in
  let nslots = Array.length ids in
  let size = max 1 nslots in
  let node_of = Array.make size 0 in
  let is_input = Bytes.make size '\000' in
  let in_region = Bytes.make size '\000' in
  let total_cubes = ref 0 in
  Array.iteri
    (fun s id ->
      t.slot.(id) <- s;
      node_of.(s) <- id;
      if Network.is_input net id then Bytes.set is_input s '\001'
      else
        total_cubes := !total_cubes + Cover.cube_count (Network.cover net id);
      if region_mask.(s) then Bytes.set in_region s '\001')
    ids;
  let total_cubes = !total_cubes in
  (* Each region node joins its fanins' fanout lists in ascending id
     order, which is [Network.fanouts]' order. *)
  let fanouts_rev = Array.make size [] in
  for s = 0 to nslots - 1 do
    if Bytes.get in_region s = '\001' && Bytes.get is_input s = '\000' then begin
      Array.iter
        (fun id ->
          let f = t.slot.(id) in
          match fanouts_rev.(f) with
          | o :: _ when o = s -> ()
          | l -> fanouts_rev.(f) <- s :: l)
        (Network.fanins net node_of.(s))
    end
  done;
  let region_fanouts =
    Array.map (fun l -> Array.of_list (List.rev l)) fanouts_rev
  in
  let cube_off = Array.make (size + 1) 0 in
  let cube_cap = max 1 total_cubes in
  let cube_lits = Array.make cube_cap [||] in
  t.built_revision <- Network.revision net;
  t.built_limit <- limit;
  t.generation <- t.generation + 1;
  t.node_of <- node_of;
  t.nslots <- nslots;
  let dc_codes, dc_watch = resolve_dc t dc_cubes in
  t.dc_codes <- dc_codes;
  t.dc_watch <- dc_watch;
  t.is_input <- is_input;
  t.in_region <- in_region;
  t.region_fanouts <- region_fanouts;
  t.cube_off <- cube_off;
  t.cube_lits <- cube_lits;
  t.frozen <- Bytes.make size '\000';
  mark_frozen t t.frozen_ids '\001';
  t.node_val <- Bytes.make size v_unknown;
  t.cube_val <- Bytes.make cube_cap v_unknown;
  t.queue <- Array.make size 0;
  t.q_head <- 0;
  t.q_len <- 0;
  t.queued <- Bytes.make size '\000';
  t.trail <- Array.make (size + cube_cap) 0;
  t.trail_len <- 0;
  (* Fill the slots; constants are seeded in the same ascending order
     (not trailed: part of the reusable baseline). *)
  let off = ref 0 in
  for s = 0 to nslots - 1 do
    cube_off.(s) <- !off;
    if Bytes.get is_input s = '\000' then begin
      let id = node_of.(s) in
      let cover = Network.cover net id in
      if Bytes.get in_region s = '\001' then begin
        let fanins = Network.fanins net id in
        List.iter
          (fun cube ->
            cube_lits.(!off) <- slot_codes t.slot fanins cube;
            incr off)
          (Cover.cubes cover)
      end
      else off := !off + Cover.cube_count cover;
      match constant_of_cover cover with
      | Some v ->
        Bytes.set t.node_val s (encode v);
        Array.iter (enqueue_slot t) region_fanouts.(s)
      | None -> ()
    end
  done;
  cube_off.(nslots) <- !off;
  t.base_queue <- Array.sub t.queue 0 t.q_len;
  count (fun c -> c.Counters.imply_creates) t

let create ?region ?(frozen = []) ?(budget = Rar_util.Budget.unlimited)
    ?counters ?(dc = Logic_network.Dont_care.empty) net =
  let t =
    {
      net;
      region;
      budget;
      counters;
      dc;
      dc_codes = [||];
      dc_watch = [||];
      built_revision = -1;
      built_limit = 0;
      generation = 0;
      slot = [||];
      node_of = [||];
      nslots = 0;
      is_input = Bytes.empty;
      in_region = Bytes.empty;
      region_fanouts = [||];
      cube_off = [||];
      cube_lits = [||];
      base_queue = [||];
      frozen = Bytes.empty;
      frozen_ids = frozen;
      node_val = Bytes.empty;
      cube_val = Bytes.empty;
      queue = [||];
      q_head = 0;
      q_len = 0;
      queued = Bytes.empty;
      trail = [||];
      trail_len = 0;
    }
  in
  build t;
  t

(* Make room for [slots] slots and [cubes] flat cubes, doubling. The
   ring buffer is laid out again from its head. *)
let reserve t ~slots ~cubes =
  let cap = Array.length t.node_of and cube_cap = Bytes.length t.cube_val in
  let cap' = if slots > cap then max slots (2 * cap) else cap in
  let cube_cap' =
    if cubes > cube_cap then max cubes (2 * cube_cap) else cube_cap
  in
  let grow_array a fill n =
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  let grow_bytes b fill n =
    let c = Bytes.make n fill in
    Bytes.blit b 0 c 0 (Bytes.length b);
    c
  in
  if cap' > cap then begin
    t.node_of <- grow_array t.node_of 0 cap';
    t.is_input <- grow_bytes t.is_input '\000' cap';
    t.in_region <- grow_bytes t.in_region '\000' cap';
    t.region_fanouts <- grow_array t.region_fanouts [||] cap';
    t.cube_off <- grow_array t.cube_off 0 (cap' + 1);
    t.frozen <- grow_bytes t.frozen '\000' cap';
    t.node_val <- grow_bytes t.node_val v_unknown cap';
    t.queued <- grow_bytes t.queued '\000' cap';
    let queue = Array.make cap' 0 in
    for k = 0 to t.q_len - 1 do
      queue.(k) <- t.queue.((t.q_head + k) mod cap)
    done;
    t.queue <- queue;
    t.q_head <- 0
  end;
  if cube_cap' > cube_cap then
    t.cube_val <- grow_bytes t.cube_val v_unknown cube_cap';
  if cap' > cap || cube_cap' > cube_cap then
    t.trail <- grow_array t.trail 0 (cap' + cube_cap')

(* Give node [id] a slot outside the region: no fanouts to wake, no cube
   literals (nothing processes it), room for its cubes' values, and its
   constant seeded as a build seeds one. *)
let add_slot t id =
  let s = t.nslots in
  let cover =
    if Network.is_input t.net id then None else Some (Network.cover t.net id)
  in
  let n = match cover with Some c -> Cover.cube_count c | None -> 0 in
  let off = t.cube_off.(s) in
  reserve t ~slots:(s + 1) ~cubes:(off + n);
  t.slot.(id) <- s;
  t.node_of.(s) <- id;
  if cover = None then Bytes.set t.is_input s '\001';
  t.cube_off.(s + 1) <- off + n;
  t.nslots <- s + 1;
  Option.iter
    (fun v -> Bytes.set t.node_val s (encode v))
    (Option.bind cover constant_of_cover);
  s

(* The slot of a node an assignment names, added when it has none. *)
let slot_exn t id =
  let s = slot_of t id in
  if s >= 0 then s
  else if id >= 0 && id < t.built_limit && Network.mem t.net id then
    add_slot t id
  else invalid_arg (Printf.sprintf "Imply: node %d unknown to the arena" id)

let stale t = Network.revision t.net <> t.built_revision

(* Erase the trail above [from] and flush whatever is queued. *)
let unwind t from =
  for k = t.trail_len - 1 downto from do
    let e = t.trail.(k) in
    if e land 1 = 0 then Bytes.set t.node_val (e lsr 1) v_unknown
    else Bytes.set t.cube_val (e lsr 1) v_unknown
  done;
  t.trail_len <- from;
  let cap = Array.length t.queue in
  while t.q_len > 0 do
    let s = t.queue.(t.q_head) in
    Bytes.set t.queued s '\000';
    t.q_head <- (if t.q_head + 1 >= cap then 0 else t.q_head + 1);
    t.q_len <- t.q_len - 1
  done;
  t.q_head <- 0

let reset ?frozen t =
  if stale t then begin
    Option.iter (fun ids -> t.frozen_ids <- ids) frozen;
    build t
  end
  else begin
    (match frozen with
    | Some ids ->
      mark_frozen t t.frozen_ids '\000';
      t.frozen_ids <- ids;
      mark_frozen t ids '\001'
    | None -> ());
    t.generation <- t.generation + 1;
    (* Undo the trail, flush the queue, and re-arm the constants'
       pending fanouts — O(assignments + queue), not O(network). *)
    unwind t 0;
    Array.iter
      (fun s ->
        Bytes.set t.queued s '\001';
        t.queue.(t.q_len) <- s;
        t.q_len <- t.q_len + 1)
      t.base_queue;
    count (fun c -> c.Counters.imply_resets) t
  end

let node_value t id =
  let s = slot_of t id in
  if s < 0 then unslotted_value t id else decode (Bytes.get t.node_val s)

let cube_value t id i =
  let s = slot_of t id in
  if s < 0 then None else decode (Bytes.get t.cube_val (t.cube_off.(s) + i))

let push_trail t e =
  t.trail.(t.trail_len) <- e;
  t.trail_len <- t.trail_len + 1

(* Value byte of the literal with slot code [code]: the node's value,
   with false and true swapped for a negative literal. *)
let lit_value t code =
  let v = Char.code (Bytes.unsafe_get t.node_val (code lsr 1)) in
  if v = 0 then 0 else v lxor (3 * (code land 1))

(* Record a node value; queue the node and its fanouts for re-examination.
   Constants are pre-seeded with their fanouts pending, so re-asserting
   one is a no-op (as in the legacy engine after its [create]). An
   assigned primary input is additionally checked against the EXCDC
   cubes watching it: a fully-matched forbidden pattern is a conflict
   (the environment never produces it), and a cube with exactly one
   free input whose other literals all hold forces that input to the
   opposite phase — the clause ¬(cube) as a unit implication. *)
let rec set_node t s v =
  let b = encode v in
  let cur = Bytes.unsafe_get t.node_val s in
  if cur = b then ()
  else if cur <> v_unknown then
    raise
      (Conflict
         (Printf.sprintf "node %s needs both 0 and 1"
            (Network.name t.net t.node_of.(s))))
  else begin
    Bytes.unsafe_set t.node_val s b;
    push_trail t (s lsl 1);
    if Bytes.unsafe_get t.in_region s <> '\000' then enqueue_slot t s;
    let outs = t.region_fanouts.(s) in
    for k = 0 to Array.length outs - 1 do
      enqueue_slot t outs.(k)
    done;
    if s < Array.length t.dc_watch && Bytes.get t.is_input s = '\001' then
      check_dc t s
  end

and check_dc t s =
  Array.iter
    (fun c ->
      let codes = t.dc_codes.(c) in
      let m = Array.length codes in
      let unknowns = ref 0 and unknown_at = ref (-1) and dead = ref false in
      let k = ref 0 in
      while (not !dead) && !k < m do
        (match lit_value t codes.(!k) with
        | 0 ->
          incr unknowns;
          unknown_at := !k
        | 1 -> dead := true
        | _ -> ());
        incr k
      done;
      if not !dead then
        if !unknowns = 0 then
          raise (Conflict "input pattern forbidden by EXCDC")
        else if !unknowns = 1 then begin
          let code = codes.(!unknown_at) in
          if Bytes.get t.frozen (code lsr 1) = '\000' then
            set_node t (code lsr 1) (code land 1 = 1)
        end)
    t.dc_watch.(s)

let set_cube t s i v =
  let c = t.cube_off.(s) + i in
  let b = encode v in
  let cur = Bytes.unsafe_get t.cube_val c in
  if cur = b then ()
  else if cur <> v_unknown then
    raise
      (Conflict
         (Printf.sprintf "cube %d of %s needs both 0 and 1" i
            (Network.name t.net t.node_of.(s))))
  else begin
    Bytes.unsafe_set t.cube_val c b;
    push_trail t ((c lsl 1) lor 1);
    if Bytes.unsafe_get t.in_region s <> '\000' then enqueue_slot t s
  end

(* 1 when some literal of the cube is false, 2 when all are true, 0
   otherwise. *)
let eval_cube t codes =
  let m = Array.length codes in
  let rec go k acc =
    if k = m then acc
    else
      match lit_value t (Array.unsafe_get codes k) with
      | 1 -> 1
      | 2 -> go (k + 1) acc
      | _ -> go (k + 1) 0
  in
  go 0 2

(* The only unknown literal of a cube whose other literals all hold, or
   -1. *)
let single_free_literal t codes =
  let m = Array.length codes in
  let rec go k free =
    if k = m then free
    else
      match lit_value t (Array.unsafe_get codes k) with
      | 0 -> if free >= 0 then -1 else go (k + 1) k
      | 1 -> -1
      | _ -> go (k + 1) free
  in
  let k = go 0 (-1) in
  if k >= 0 then codes.(k) else -1

(* All local deductions for one logic node. *)
let process t s =
  if
    Bytes.unsafe_get t.is_input s = '\000'
    && Bytes.unsafe_get t.in_region s <> '\000'
  then begin
    let off = t.cube_off.(s) in
    let n = t.cube_off.(s + 1) - off in
    (* Cube-level rules. *)
    for i = 0 to n - 1 do
      let codes = t.cube_lits.(off + i) in
      (match eval_cube t codes with
      | 1 -> set_cube t s i false
      | 2 -> set_cube t s i true
      | _ -> ());
      match Bytes.unsafe_get t.cube_val (off + i) with
      | '\002' ->
        (* AND at 1: every literal must hold. *)
        for k = 0 to Array.length codes - 1 do
          let code = codes.(k) in
          set_node t (code lsr 1) (code land 1 = 0)
        done
      | '\001' ->
        (* AND at 0 with a single free literal and all others true: the
           free literal must fail. Values are re-read — the AND-at-1
           branch of earlier cubes may have pinned fanins since the
           scan above. *)
        let code = single_free_literal t codes in
        if code >= 0 then set_node t (code lsr 1) (code land 1 = 1)
      | _ -> ()
    done;
    (* Node-level rules (skipped for fault-carrying nodes). Setting the
       node's own value touches no cube, so one scan serves all three. *)
    if Bytes.unsafe_get t.frozen s = '\000' then begin
      let ones = ref 0 and zeros = ref 0 and live = ref 0 and live_at = ref 0 in
      for i = 0 to n - 1 do
        match Bytes.unsafe_get t.cube_val (off + i) with
        | '\001' -> incr zeros
        | '\002' ->
          incr ones;
          incr live;
          live_at := i
        | _ ->
          incr live;
          live_at := i
      done;
      if !ones > 0 then set_node t s true;
      if !zeros = n then set_node t s false;
      match Bytes.unsafe_get t.node_val s with
      | '\001' ->
        for i = 0 to n - 1 do
          set_cube t s i false
        done
      | '\002' -> if !live = 1 then set_cube t s !live_at true
      | _ -> ()
    end
  end

(* One fuel unit per dequeued slot: the budget bounds the number of
   propagation steps a fault test may take. [Budget.Exhausted] escapes to
   the first layer with a fallback (e.g. {!Fault.redundant_result}); the
   engine itself stays consistent — a later [reset] rewinds the trail as
   after a conflict. *)
let run t =
  let cap = Array.length t.queue in
  while t.q_len > 0 do
    Rar_util.Budget.spend t.budget;
    let s = t.queue.(t.q_head) in
    t.q_head <- (if t.q_head + 1 >= cap then 0 else t.q_head + 1);
    t.q_len <- t.q_len - 1;
    Bytes.set t.queued s '\000';
    process t s
  done

let set_budget t budget = t.budget <- budget

let propagate t = run t

(* --- Trail checkpoints ------------------------------------------------- *)

type mark = { m_trail : int; m_generation : int }

let checkpoint t =
  if t.q_len > 0 then
    invalid_arg "Imply.checkpoint: pending implications (propagate first)";
  { m_trail = t.trail_len; m_generation = t.generation }

let pop_to t mark =
  if
    mark.m_generation <> t.generation
    || stale t
    || mark.m_trail > t.trail_len
  then false
  else begin
    (* Rewind the assignments above the mark, then flush whatever an
       aborted propagation (conflict, exhausted budget) left queued —
       the shared context below the mark had an empty queue. *)
    unwind t mark.m_trail;
    count (fun c -> c.Counters.imply_checkpoints) t;
    true
  end

let assign_node t id v =
  set_node t (slot_exn t id) v;
  run t

let assign_cube t id i v =
  let s = slot_exn t id in
  if i < 0 || i >= t.cube_off.(s + 1) - t.cube_off.(s) then
    invalid_arg "Imply.assign_cube: cube index";
  set_cube t s i v;
  run t

(* Snapshot for recursive learning: private per-test state is duplicated,
   the structural arrays stay shared. *)
let copy t =
  {
    t with
    node_val = Bytes.copy t.node_val;
    cube_val = Bytes.copy t.cube_val;
    queue = Array.copy t.queue;
    queued = Bytes.copy t.queued;
    trail = Array.copy t.trail;
  }

(* --- Recursive learning ------------------------------------------------ *)

(* Unjustified situations and their justification options, each option
   being a list of primitive assignments on slots. The scan follows
   {!Network.node_ids} (descending ids) and conses, so the splits run
   from the lowest id up. *)
type option_assignment = Node of int * bool | Cube of int * int * bool

let justification_options t =
  let options = ref [] in
  List.iter
    (fun id ->
      let s = slot_of t id in
      if
        s >= 0
        && Bytes.get t.is_input s = '\000'
        && Bytes.get t.in_region s = '\001'
        && Bytes.get t.frozen s = '\000'
      then begin
        let off = t.cube_off.(s) in
        let n = t.cube_off.(s + 1) - off in
        (* OR at 1 with several live cubes and none at 1. *)
        if Bytes.get t.node_val s = v_true then begin
          let live =
            List.filter
              (fun i -> Bytes.get t.cube_val (off + i) <> v_false)
              (List.init n Fun.id)
          in
          let already =
            List.exists (fun i -> Bytes.get t.cube_val (off + i) = v_true) live
          in
          if (not already) && List.length live >= 2 then
            options :=
              List.map (fun i -> [ Cube (s, i, true) ]) live :: !options
        end;
        (* AND at 0 with several free literals. *)
        for i = 0 to n - 1 do
          if Bytes.get t.cube_val (off + i) = v_false then begin
            let codes = t.cube_lits.(off + i) in
            let free =
              List.filter
                (fun code -> lit_value t code = 0)
                (Array.to_list codes)
            in
            let falsified =
              Array.exists (fun code -> lit_value t code = 1) codes
            in
            if (not falsified) && List.length free >= 2 then
              options :=
                List.map
                  (fun code -> [ Node (code lsr 1, code land 1 = 1) ])
                  free
                :: !options
          end
        done
      end)
    (Network.node_ids t.net);
  !options

let apply_assignment t = function
  | Node (s, v) -> set_node t s v
  | Cube (s, i, v) -> set_cube t s i v

let rec learn ?(max_options = 4) ~depth t =
  if depth > 0 then begin
    let progressed = ref true in
    while !progressed do
      progressed := false;
      let splits = justification_options t in
      let try_option assignments =
        let scratch = copy t in
        match
          List.iter (apply_assignment scratch) assignments;
          run scratch;
          if depth > 1 then learn ~max_options ~depth:(depth - 1) scratch
        with
        | () -> Some scratch
        | exception Conflict _ -> None
      in
      List.iter
        (fun opts ->
          if List.length opts <= max_options then begin
            match List.filter_map try_option opts with
            | [] -> raise (Conflict "all justification options conflict")
            | first :: rest ->
              (* Assert assignments agreed by every surviving option:
                 walk the first survivor's trail (every value it derived
                 beyond [t]'s is on it). *)
              for k = 0 to first.trail_len - 1 do
                let e = first.trail.(k) in
                if e land 1 = 0 then begin
                  let e = e lsr 1 in
                  let v = Bytes.get first.node_val e in
                  if
                    v <> v_unknown
                    && Bytes.get t.node_val e = v_unknown
                    && List.for_all (fun s -> Bytes.get s.node_val e = v) rest
                  then begin
                    set_node t e (v = v_true);
                    progressed := true
                  end
                end
              done;
              run t
          end)
        splits
    done
  end
