let exact_threshold = 18

(* Bron-Kerbosch with pivoting over int-list sets. *)
let maximal_cliques ~n ~adjacent =
  let neighbours v = List.filter (adjacent v) (List.init n Fun.id) in
  let results = ref [] in
  let rec bk r p x =
    match (p, x) with
    | [], [] -> results := List.rev r :: !results
    | _ ->
      let pivot =
        match p @ x with
        | [] -> assert false
        | u :: _ ->
          (* Pivot with most neighbours in p. *)
          List.fold_left
            (fun best v ->
              let deg v = List.length (List.filter (adjacent v) p) in
              if deg v > deg best then v else best)
            u (p @ x)
      in
      let candidates = List.filter (fun v -> not (adjacent pivot v)) p in
      List.fold_left
        (fun (p, x) v ->
          let nv = neighbours v in
          bk (v :: r)
            (List.filter (fun w -> List.mem w nv) p)
            (List.filter (fun w -> List.mem w nv) x);
          (List.filter (fun w -> w <> v) p, v :: x))
        (p, x) candidates
      |> ignore
  in
  bk [] (List.init n Fun.id) [];
  !results

let greedy_clique ~n ~adjacent =
  let degree v = List.length (List.filter (adjacent v) (List.init n Fun.id)) in
  let order =
    List.sort
      (fun a b -> Int.compare (degree b) (degree a))
      (List.init n Fun.id)
  in
  List.fold_left
    (fun clique v ->
      if List.for_all (adjacent v) clique then v :: clique else clique)
    [] order
  |> List.rev

type 'a choice = {
  members : int list;
  core : 'a list;
}

let intersection lists =
  match lists with
  | [] -> []
  | first :: rest ->
    List.filter (fun x -> List.for_all (List.mem x) rest) first

let best_core ~candidates ~serves =
  let n = Array.length candidates in
  if n = 0 then None
  else begin
    (* Bron–Kerbosch asks about the same pairs many times: intersect each
       pair of candidate lists once. *)
    let matrix = Array.make_matrix n n false in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        if List.exists (fun x -> List.mem x candidates.(b)) candidates.(a)
        then begin
          matrix.(a).(b) <- true;
          matrix.(b).(a) <- true
        end
      done
    done;
    let adjacent a b = matrix.(a).(b) in
    let cliques =
      if n <= exact_threshold then maximal_cliques ~n ~adjacent
      else [ greedy_clique ~n ~adjacent ]
    in
    (* Singleton cliques are always available as a fallback. *)
    let cliques = cliques @ List.init n (fun v -> [ v ]) in
    let evaluate members =
      let core = intersection (List.map (fun v -> candidates.(v)) members) in
      if core = [] then None
      else begin
        let served = List.filter (fun v -> serves v core) members in
        if served = [] then None else Some { members = served; core }
      end
    in
    List.fold_left
      (fun best clique ->
        match evaluate clique with
        | None -> best
        | Some choice -> (
          match best with
          | Some b when List.length b.members >= List.length choice.members ->
            best
          | _ -> Some choice))
      None cliques
  end
