(* External don't-care view over a network.

   Two kinds of external freedom, both expressed over *names* so a view
   stays valid across [Network.copy] snapshots (copies preserve names):

   - EXCDC (external controllability don't cares): a cover of input
     patterns the surrounding system never produces. Each cube is a
     list of (input name, phase) literals; an input valuation is
     *forbidden* when every literal of some cube matches it.

   - EXOEC (external observability equivalence classes): pairs of full
     output patterns the surrounding system cannot tell apart. The
     classes are the transitive closure of the pairs.

   The view is immutable; [bind] is the one place its cubes meet a
   consumer's names. *)

type literal = string * bool
type cube = literal list

type t = {
  excdc : cube list; (* insertion order; normalised cubes *)
  exoec : (string * string) list; (* canonical pattern-key pairs *)
  exoec_pairs : (cube * cube) list;
}

let empty = { excdc = []; exoec = []; exoec_pairs = [] }
let is_empty t = t.excdc = [] && t.exoec = []

let sorted_literals lits =
  List.sort_uniq
    (fun (a, pa) (b, pb) ->
      match String.compare a b with 0 -> Bool.compare pa pb | c -> c)
    lits

(* A name that appears twice in sorted, deduplicated literals appears
   with both phases. *)
let rec check_distinct what = function
  | (a, _) :: ((b, _) :: _ as rest) ->
    if String.equal a b then
      invalid_arg (Printf.sprintf "Dont_care.make: contradictory %s %s" what a)
    else check_distinct what rest
  | _ -> ()

(* Normalise a cube: sort by name, drop duplicate literals. An empty
   cube would forbid every input pattern (the block is never exercised
   at all) and a contradictory cube forbids nothing; both almost always
   indicate caller confusion, so they are rejected. *)
let normalise_cube lits =
  if lits = [] then invalid_arg "Dont_care.make: empty cube";
  let sorted = sorted_literals lits in
  check_distinct "literals on" sorted;
  sorted

(* Output patterns are canonicalised to a sorted "name=0/1 ..." key so
   structurally-equal patterns written in different orders compare
   equal. *)
let pattern_key pat =
  let sorted = sorted_literals pat in
  check_distinct "values for output" sorted;
  String.concat " "
    (List.map (fun (n, v) -> n ^ (if v then "=1" else "=0")) sorted)

let make ?(exoec = []) cubes =
  let keys = List.map (fun (p1, p2) -> (pattern_key p1, pattern_key p2)) exoec in
  { excdc = List.map normalise_cube cubes; exoec = keys; exoec_pairs = exoec }

let excdc t = t.excdc
let exoec t = t.exoec_pairs

let merge t extra =
  {
    excdc = t.excdc @ extra.excdc;
    exoec = t.exoec @ extra.exoec;
    exoec_pairs = t.exoec_pairs @ extra.exoec_pairs;
  }

(* Union-find over the pattern keys seen in the pairs, rebuilt per
   query. Views are small (human-supplied equivalences), so the rebuild
   is cheap. *)
let same_output_class t pat1 pat2 =
  let k1 = pattern_key pat1 and k2 = pattern_key pat2 in
  String.equal k1 k2
  ||
  let parent = Hashtbl.create 16 in
  let rec find k =
    match Hashtbl.find_opt parent k with
    | None | Some "" -> k
    | Some p ->
      let root = find p in
      Hashtbl.replace parent k root;
      root
  in
  let union a b =
    let ra = find a and rb = find b in
    if not (String.equal ra rb) then Hashtbl.replace parent ra rb
  in
  List.iter (fun (a, b) -> union a b) t.exoec;
  String.equal (find k1) (find k2)

let bind t resolve =
  List.filter_map
    (fun cube ->
      let bound =
        List.filter_map
          (fun (name, phase) -> Option.map (fun x -> (x, phase)) (resolve name))
          cube
      in
      if List.compare_lengths bound cube = 0 then Some bound else None)
    t.excdc

(* Word-parallel care mask: bit i of word w is 1 iff simulation row
   64*w+i is *cared about* (matches no bound cube). *)
let care_mask t ~words ~stimulus =
  match bind t stimulus with
  | [] -> None
  | cubes ->
    let mask = Array.make words (-1L) in
    List.iter
      (fun cube ->
        for w = 0 to words - 1 do
          let hit =
            List.fold_left
              (fun acc (st, phase) ->
                Int64.logand acc (if phase then st.(w) else Int64.lognot st.(w)))
              (-1L) cube
          in
          mask.(w) <- Int64.logand mask.(w) (Int64.lognot hit)
        done)
      cubes;
    Some mask

(* A cube survives only when its whole support renames: a cube
   mentioning a signal outside the sub-circuit says nothing certain
   about the sub-circuit's inputs alone. EXOEC classes are over full
   output patterns and never project. The projected view forbids a
   subset of what the original forbids, which is always sound. *)
let project t ~rename = make (bind t rename)
