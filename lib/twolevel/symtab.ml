type t = {
  by_name : (string, int) Hashtbl.t;
  mutable by_index : string array;
  mutable count : int;
}

let create () = { by_name = Hashtbl.create 32; by_index = Array.make 16 ""; count = 0 }

let intern t name =
  match Hashtbl.find_opt t.by_name name with
  | Some i -> i
  | None ->
    let i = t.count in
    if i = Array.length t.by_index then begin
      let grown = Array.make (2 * (i + 1)) "" in
      Array.blit t.by_index 0 grown 0 i;
      t.by_index <- grown
    end;
    t.by_index.(i) <- name;
    Hashtbl.add t.by_name name i;
    t.count <- i + 1;
    i

let find_opt t name = Hashtbl.find_opt t.by_name name

let name t i =
  if i < 0 || i >= t.count then invalid_arg "Symtab.name: unknown index"
  else t.by_index.(i)

let size t = t.count
