module Key = struct
  type t = int * Cover.t

  let equal (t1, c1) (t2, c2) = Int.equal t1 t2 && Cover.equal c1 c2

  let hash (tag, c) =
    List.fold_left
      (fun h cube -> ((h * 31) + Cube.hash cube) land max_int)
      tag (Cover.cubes c)
end

module Tbl = Hashtbl.Make (Key)

type 'a t = { cap : int; table : 'a Tbl.t Domain.DLS.key }

let create ~cap = { cap; table = Domain.DLS.new_key (fun () -> Tbl.create cap) }

let find_or_add t tag cover compute =
  let tbl = Domain.DLS.get t.table in
  let key = (tag, cover) in
  match Tbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = compute () in
    if Tbl.length tbl >= t.cap then Tbl.reset tbl;
    Tbl.add tbl key v;
    v
