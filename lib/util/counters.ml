(* Scalar tallies are [Atomic.t], so a record shared between domains
   loses no update; the structured [pass_divisions] list stays
   single-writer (the driver's fixpoint loop). *)

type t = {
  pairs_considered : int Atomic.t;
  pairs_filtered : int Atomic.t;
  divisions_attempted : int Atomic.t;
  substitutions : int Atomic.t;
  memo_hits : int Atomic.t;
  memo_misses : int Atomic.t;
  imply_creates : int Atomic.t;
  imply_refreshes : int Atomic.t;
  imply_resets : int Atomic.t;
  imply_checkpoints : int Atomic.t;
  degradations : int Atomic.t;
  floor_rejects : int Atomic.t;
  passes : int Atomic.t;
  kresub_candidates : int Atomic.t;
  kresub_validated : int Atomic.t;
  kresub_refinements : int Atomic.t;
  mutable pass_divisions : int list;
  filter_seconds : float Atomic.t;
  division_seconds : float Atomic.t;
  validation_seconds : float Atomic.t;
}

let create () =
  {
    pairs_considered = Atomic.make 0;
    pairs_filtered = Atomic.make 0;
    divisions_attempted = Atomic.make 0;
    substitutions = Atomic.make 0;
    memo_hits = Atomic.make 0;
    memo_misses = Atomic.make 0;
    imply_creates = Atomic.make 0;
    imply_refreshes = Atomic.make 0;
    imply_resets = Atomic.make 0;
    imply_checkpoints = Atomic.make 0;
    degradations = Atomic.make 0;
    floor_rejects = Atomic.make 0;
    passes = Atomic.make 0;
    kresub_candidates = Atomic.make 0;
    kresub_validated = Atomic.make 0;
    kresub_refinements = Atomic.make 0;
    pass_divisions = [];
    filter_seconds = Atomic.make 0.0;
    division_seconds = Atomic.make 0.0;
    validation_seconds = Atomic.make 0.0;
  }

let add cell n = ignore (Atomic.fetch_and_add cell n : int)

(* No fetch-and-add for boxed floats: retry a compare-and-set. Adds are
   rare (one per timed region), so contention is negligible. *)
let add_seconds cell dt =
  let rec retry () =
    let old = Atomic.get cell in
    if not (Atomic.compare_and_set cell old (old +. dt)) then retry ()
  in
  retry ()

(* Per-pass division tallies from different circuits align by pass index
   (pass 1 with pass 1, ...); runs with fewer passes contribute zero to
   the tail. *)
let rec sum_by_pass a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | x :: xs, y :: ys -> (x + y) :: sum_by_pass xs ys

let add_pass t i n =
  t.pass_divisions <-
    sum_by_pass t.pass_divisions (List.init i (fun _ -> 0) @ [ n ])

let accumulate dst src =
  add dst.pairs_considered (Atomic.get src.pairs_considered);
  add dst.pairs_filtered (Atomic.get src.pairs_filtered);
  add dst.divisions_attempted (Atomic.get src.divisions_attempted);
  add dst.substitutions (Atomic.get src.substitutions);
  add dst.imply_creates (Atomic.get src.imply_creates);
  add dst.imply_refreshes (Atomic.get src.imply_refreshes);
  add dst.imply_resets (Atomic.get src.imply_resets);
  add dst.imply_checkpoints (Atomic.get src.imply_checkpoints);
  add dst.degradations (Atomic.get src.degradations);
  add dst.floor_rejects (Atomic.get src.floor_rejects);
  (let p = Atomic.get src.passes in
   if p > Atomic.get dst.passes then Atomic.set dst.passes p);
  add dst.kresub_candidates (Atomic.get src.kresub_candidates);
  add dst.kresub_validated (Atomic.get src.kresub_validated);
  add dst.kresub_refinements (Atomic.get src.kresub_refinements);
  dst.pass_divisions <- sum_by_pass dst.pass_divisions src.pass_divisions;
  add_seconds dst.filter_seconds (Atomic.get src.filter_seconds);
  add_seconds dst.division_seconds (Atomic.get src.division_seconds);
  add_seconds dst.validation_seconds (Atomic.get src.validation_seconds)

(* The elapsed time must land in its bucket also when [f] raises (a
   budget exhaustion or conflict escaping a division is normal control
   flow here) — otherwise every degraded attempt under-reports its
   phase's wall-clock. *)
let timed t field f =
  let start = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let elapsed = Unix.gettimeofday () -. start in
      match field with
      | `Filter -> add_seconds t.filter_seconds elapsed
      | `Division -> add_seconds t.division_seconds elapsed
      | `Validate -> add_seconds t.validation_seconds elapsed)
    f

let pass_divisions_string t =
  String.concat ", " (List.map string_of_int t.pass_divisions)

let to_string t =
  Printf.sprintf
    "pairs %d (filtered %d), divisions %d (passes %d: [%s]), substitutions \
     %d, imply %d creates / %d refreshes / %d resets / %d checkpoints, \
     degradations %d, floor rejects %d, kresub %d candidates / %d \
     validated / %d refinements, filter %.2fs, division %.2fs, validation \
     %.2fs"
    (Atomic.get t.pairs_considered)
    (Atomic.get t.pairs_filtered)
    (Atomic.get t.divisions_attempted)
    (Atomic.get t.passes)
    (pass_divisions_string t)
    (Atomic.get t.substitutions)
    (Atomic.get t.imply_creates)
    (Atomic.get t.imply_refreshes)
    (Atomic.get t.imply_resets)
    (Atomic.get t.imply_checkpoints)
    (Atomic.get t.degradations)
    (Atomic.get t.floor_rejects)
    (Atomic.get t.kresub_candidates)
    (Atomic.get t.kresub_validated)
    (Atomic.get t.kresub_refinements)
    (Atomic.get t.filter_seconds)
    (Atomic.get t.division_seconds)
    (Atomic.get t.validation_seconds)

let to_json t =
  Printf.sprintf
    "{\"pairs_considered\": %d, \"pairs_filtered\": %d, \
     \"divisions_attempted\": %d, \"substitutions\": %d, \
     \"imply_creates\": %d, \"imply_refreshes\": %d, \
     \"imply_resets\": %d, \
     \"imply_checkpoints\": %d, \
     \"degradations\": %d, \
     \"floor_rejects\": %d, \"passes\": %d, \"pass_divisions\": [%s], \
     \"kresub_candidates\": %d, \"kresub_validated\": %d, \
     \"kresub_refinements\": %d, \
     \"filter_seconds\": %.6f, \"division_seconds\": %.6f, \
     \"validation_seconds\": %.6f}"
    (Atomic.get t.pairs_considered)
    (Atomic.get t.pairs_filtered)
    (Atomic.get t.divisions_attempted)
    (Atomic.get t.substitutions)
    (Atomic.get t.imply_creates)
    (Atomic.get t.imply_refreshes)
    (Atomic.get t.imply_resets)
    (Atomic.get t.imply_checkpoints)
    (Atomic.get t.degradations)
    (Atomic.get t.floor_rejects)
    (Atomic.get t.passes)
    (pass_divisions_string t)
    (Atomic.get t.kresub_candidates)
    (Atomic.get t.kresub_validated)
    (Atomic.get t.kresub_refinements)
    (Atomic.get t.filter_seconds)
    (Atomic.get t.division_seconds)
    (Atomic.get t.validation_seconds)
