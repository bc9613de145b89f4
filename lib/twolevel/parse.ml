exception Syntax_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Syntax_error s)) fmt

type token = Plus | One | Zero | Ident of string * int (* quotes *)

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let i = ref 0 in
  let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let is_digit c = c >= '0' && c <= '9' in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' then incr i
    else if c = '+' || c = '|' then begin
      tokens := Plus :: !tokens;
      incr i
    end
    else if c = '*' || c = '&' then incr i (* explicit AND is optional *)
    else if c = '1' then begin
      tokens := One :: !tokens;
      incr i
    end
    else if c = '0' then begin
      tokens := Zero :: !tokens;
      incr i
    end
    else if c = '!' || is_letter c then begin
      let bangs = ref 0 in
      while !i < n && input.[!i] = '!' do
        incr bangs;
        incr i
      done;
      if !i >= n || not (is_letter input.[!i]) then
        fail "expected an identifier after '!' at offset %d" !i;
      let start = !i in
      incr i;
      while !i < n && is_digit input.[!i] do
        incr i
      done;
      let name = String.sub input start (!i - start) in
      let quotes = ref !bangs in
      while !i < n && input.[!i] = '\'' do
        incr quotes;
        incr i
      done;
      tokens := Ident (name, !quotes) :: !tokens
    end
    else fail "unexpected character %C at offset %d" c !i
  done;
  List.rev !tokens

let cover symtab input =
  let tokens = tokenize input in
  (* Split on Plus into products. *)
  let products =
    let rec split current acc = function
      | [] -> List.rev (List.rev current :: acc)
      | Plus :: rest ->
        if current = [] then fail "empty product term in %S" input
        else split [] (List.rev current :: acc) rest
      | tok :: rest -> split (tok :: current) acc rest
    in
    match tokens with [] -> [] | _ -> split [] [] tokens
  in
  let product_to_cube toks =
    match toks with
    | [ Zero ] -> None
    | _ ->
      let lits =
        List.filter_map
          (function
            | One -> None
            | Zero -> fail "0 cannot be multiplied inside a product in %S" input
            | Plus -> assert false
            | Ident (name, quotes) ->
              let v = Symtab.intern symtab name in
              Some (Literal.make v (quotes mod 2 = 0)))
          toks
      in
      begin
        match Cube.of_literals lits with
        | Some c -> Some c
        | None -> None (* contradictory product is the 0 function *)
      end
  in
  if products = [] then Cover.zero
  else Cover.of_cubes (List.filter_map product_to_cube products)

let cover_default input =
  (* Pre-seed a..z so that single-letter variables get their alphabetical
     index regardless of appearance order. *)
  let symtab = Symtab.create () in
  for v = 0 to 25 do
    ignore (Symtab.intern symtab (Literal.default_names v))
  done;
  cover symtab input
