module Key = struct
  type t = int * Cover.t

  let equal (t1, c1) (t2, c2) = Int.equal t1 t2 && Cover.equal c1 c2

  let hash (tag, c) =
    List.fold_left
      (fun h cube -> ((h * 31) + Cube.hash cube) land max_int)
      tag (Cover.cubes c)
end

module Tbl = Hashtbl.Make (Key)

(* Two generations per domain: new entries go to [young]; when it is
   full it becomes [old], and the previous [old], emptied, becomes the
   new [young]. A key inserted up to [cap] insertions before the last
   turnover is still found. A hit in [old] is promoted into [young]. *)
type 'a gens = { mutable young : 'a Tbl.t; mutable old : 'a Tbl.t }

type 'a t = { cap : int; gens : 'a gens Domain.DLS.key }

let create ~cap =
  {
    cap;
    gens =
      Domain.DLS.new_key (fun () ->
          { young = Tbl.create cap; old = Tbl.create cap });
  }

let add t g key v =
  if Tbl.length g.young >= t.cap then begin
    let spent = g.old in
    Tbl.clear spent;
    g.old <- g.young;
    g.young <- spent
  end;
  Tbl.add g.young key v

let find_or_add t tag cover compute =
  let g = Domain.DLS.get t.gens in
  let key = (tag, cover) in
  match Tbl.find_opt g.young key with
  | Some v -> v
  | None -> (
    match Tbl.find_opt g.old key with
    | Some v ->
      add t g key v;
      v
    | None ->
      let v = compute () in
      add t g key v;
      v)
