(* External don't-care view over a network.

   Two kinds of external freedom, both expressed over *names* so a view
   stays valid across [Network.copy] snapshots (copies preserve names):

   - EXCDC (external controllability don't cares): a cover of input
     patterns the surrounding system never produces. Each cube is a
     list of (input name, phase) literals; an input valuation is
     *forbidden* when every literal of some cube matches it.

   - EXOEC (external observability equivalence classes): pairs of full
     output patterns the surrounding system cannot tell apart. The
     classes are the transitive closure of the added pairs.

   The view is mutable and carries its own revision counter so cached
   derivatives (e.g. the care mask inside [Signature]) can detect
   staleness without observers. *)

type literal = string * bool
type cube = literal list

type t = {
  mutable excdc : cube list; (* newest first; normalised cubes *)
  mutable exoec : (string * string) list; (* canonical pattern-key pairs *)
  mutable exoec_pairs : ((string * bool) list * (string * bool) list) list;
  mutable revision : int;
}

let create () = { excdc = []; exoec = []; exoec_pairs = []; revision = 0 }

let copy t =
  {
    excdc = t.excdc;
    exoec = t.exoec;
    exoec_pairs = t.exoec_pairs;
    revision = t.revision;
  }

let revision t = t.revision
let is_empty t = t.excdc = [] && t.exoec = []

(* Normalise a cube: sort by name, drop duplicate literals. An empty
   cube would forbid every input pattern (the block is never exercised
   at all) and a contradictory cube forbids nothing; both almost always
   indicate caller confusion, so they are rejected. *)
let normalise_cube lits =
  if lits = [] then invalid_arg "Dont_care.add_excdc: empty cube";
  let sorted =
    List.sort_uniq
      (fun (a, pa) (b, pb) ->
        match String.compare a b with 0 -> Bool.compare pa pb | c -> c)
      lits
  in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if String.equal a b then
        invalid_arg
          (Printf.sprintf "Dont_care.add_excdc: contradictory literals on %s" a)
      else check rest
    | _ -> ()
  in
  check sorted;
  sorted

let add_excdc t lits =
  let cube = normalise_cube lits in
  t.excdc <- cube :: t.excdc;
  t.revision <- t.revision + 1

let excdc t = List.rev t.excdc

(* Output patterns are canonicalised to a sorted "name=0/1 ..." key so
   structurally-equal patterns written in different orders compare
   equal. *)
let pattern_key pat =
  let sorted =
    List.sort_uniq
      (fun (a, pa) (b, pb) ->
        match String.compare a b with 0 -> Bool.compare pa pb | c -> c)
      pat
  in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if String.equal a b then
        invalid_arg
          (Printf.sprintf
             "Dont_care.add_exoec_pair: contradictory values for output %s" a)
      else check rest
    | _ -> ()
  in
  check sorted;
  String.concat " "
    (List.map (fun (n, v) -> n ^ (if v then "=1" else "=0")) sorted)

let add_exoec_pair t pat1 pat2 =
  let k1 = pattern_key pat1 and k2 = pattern_key pat2 in
  t.exoec <- (k1, k2) :: t.exoec;
  t.exoec_pairs <- (pat1, pat2) :: t.exoec_pairs;
  t.revision <- t.revision + 1

let exoec t = List.rev t.exoec_pairs

let merge t extra =
  List.iter (add_excdc t) (excdc extra);
  List.iter (fun (p1, p2) -> add_exoec_pair t p1 p2) (exoec extra)

(* Union-find over the pattern keys seen in the added pairs, rebuilt
   per query. Views are small (human-supplied equivalences), so the
   rebuild is cheap and keeps the mutable state trivial. *)
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

(* Word-parallel care mask: bit i of word w is 1 iff simulation row
   64*w+i is *cared about* (matches no EXCDC cube). [stimulus] maps an
   input name to its simulation words; cubes naming signals the caller
   cannot resolve are dropped, which conservatively keeps their rows in
   the care set. *)
let care_mask t ~words ~stimulus =
  let mask = Array.make words (-1L) in
  List.iter
    (fun cube ->
      let resolved =
        List.map (fun (name, phase) -> (stimulus name, phase)) cube
      in
      if List.for_all (fun (s, _) -> s <> None) resolved then
        for w = 0 to words - 1 do
          let hit =
            List.fold_left
              (fun acc (s, phase) ->
                match s with
                | None -> assert false
                | Some st ->
                  Int64.logand acc
                    (if phase then st.(w) else Int64.lognot st.(w)))
              (-1L) resolved
          in
          mask.(w) <- Int64.logand mask.(w) (Int64.lognot hit)
        done)
    t.excdc;
  mask

(* Restrict the view to a sub-circuit whose signals are a renaming of
   (some of) ours — e.g. an AIG optimisation window whose leaves map
   back to primary inputs. EXCDC cubes survive only when their whole
   support renames (a cube mentioning a signal outside the window says
   nothing certain about the window's inputs alone); EXOEC classes are
   over full output patterns and never project. Dropping information is
   always sound: the projected view forbids a subset of what the
   original forbids. *)
let project t ~rename =
  let view = create () in
  List.iter
    (fun cube ->
      let renamed =
        List.filter_map
          (fun (name, phase) ->
            match rename name with
            | Some name' -> Some (name', phase)
            | None -> None)
          cube
      in
      if List.length renamed = List.length cube then add_excdc view renamed)
    (excdc t);
  view
