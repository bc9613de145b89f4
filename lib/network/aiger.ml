exception Parse_error of { line : int; message : string }

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let words line =
  List.filter (fun w -> w <> "") (String.split_on_char ' ' line)

let int_word lineno w =
  match int_of_string_opt w with
  | Some n when n >= 0 -> n
  | _ -> fail lineno "expected a non-negative integer, got %S" w

(* Physical lines, CRLF-tolerant, 1-based. *)
let physical_lines text =
  let raw = String.split_on_char '\n' text in
  let raw =
    match List.rev raw with "" :: rest -> List.rev rest | _ -> raw
  in
  List.mapi
    (fun i line ->
      let line =
        let n = String.length line in
        if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1)
        else line
      in
      (i + 1, line))
    raw

let parse text =
  let lines = physical_lines text in
  let header, rest =
    match lines with
    | [] -> fail 1 "empty document"
    | h :: rest -> (h, rest)
  in
  let m, n_ins, n_latches, n_outs, n_ands =
    let lineno, line = header in
    match words line with
    | [ "aag"; m; i; l; o; a ] ->
      ( int_word lineno m,
        int_word lineno i,
        int_word lineno l,
        int_word lineno o,
        int_word lineno a )
    | "aig" :: _ ->
      fail lineno "binary AIGER (aig) is not supported; convert to aag"
    | _ -> fail lineno "malformed header (expected 'aag M I L O A')"
  in
  if n_latches > 0 then
    fail (fst header) "latches are not supported (combinational aag only)";
  let take what n rest =
    let rec go acc n rest =
      if n = 0 then (List.rev acc, rest)
      else
        match rest with
        | [] ->
          let last = match lines with [] -> 1 | _ -> fst (List.hd (List.rev lines)) in
          fail last "truncated file: missing %s lines" what
        | line :: rest -> go (line :: acc) (n - 1) rest
    in
    go [] n rest
  in
  let input_lines, rest = take "input" n_ins rest in
  let output_lines, rest = take "output" n_outs rest in
  let and_lines, rest = take "AND" n_ands rest in
  (* Symbol table (and trailing comment section). *)
  let input_syms = Hashtbl.create 16 and output_syms = Hashtbl.create 16 in
  (* Names already given, per side: the graph refuses a repeated input
     or output name, so a repeat is a file error at its symbol line. *)
  let input_names = Hashtbl.create 16 and output_names = Hashtbl.create 16 in
  let claim names side lineno name =
    if Hashtbl.mem names name then fail lineno "duplicate %s name %S" side name;
    Hashtbl.replace names name ()
  in
  let rec symbols = function
    | [] -> ()
    | (_, line) :: _ when line = "c" -> ()
    | (lineno, line) :: rest -> (
      match words line with
      | [] -> fail lineno "blank line in the symbol table"
      | key :: name_words when String.length key >= 2 -> (
        let name = String.concat " " name_words in
        if name = "" then fail lineno "symbol entry without a name";
        let idx () =
          match
            int_of_string_opt (String.sub key 1 (String.length key - 1))
          with
          | Some n when n >= 0 -> n
          | _ -> fail lineno "malformed symbol index %S" key
        in
        match key.[0] with
        | 'i' ->
          let i = idx () in
          if i >= n_ins then fail lineno "input symbol %S out of range" key;
          if Hashtbl.mem input_syms i then
            fail lineno "duplicate symbol for input %d" i;
          claim input_names "input" lineno name;
          Hashtbl.replace input_syms i name;
          symbols rest
        | 'o' ->
          let o = idx () in
          if o >= n_outs then fail lineno "output symbol %S out of range" key;
          if Hashtbl.mem output_syms o then
            fail lineno "duplicate symbol for output %d" o;
          claim output_names "output" lineno name;
          Hashtbl.replace output_syms o name;
          symbols rest
        | 'l' -> fail lineno "latch symbols are not supported"
        | _ -> fail lineno "unrecognised symbol entry %S" key)
      | _ -> fail lineno "unrecognised symbol line")
  in
  symbols rest;
  let aig = Aig.create () in
  (* Variable -> literal in the strashed in-memory graph. *)
  let var_lit = Hashtbl.create (1 + n_ins + n_ands) in
  Hashtbl.replace var_lit 0 Aig.const_false;
  List.iteri
    (fun i (lineno, line) ->
      match words line with
      | [ w ] ->
        let l = int_word lineno w in
        if l = 0 || l land 1 = 1 then
          fail lineno "input literal %d must be even and positive" l;
        let v = l lsr 1 in
        if v > m then fail lineno "input literal %d exceeds header M=%d" l m;
        if Hashtbl.mem var_lit v then
          fail lineno "variable %d defined twice" v;
        let name =
          match Hashtbl.find_opt input_syms i with
          | Some n -> n
          | None ->
            let n = Printf.sprintf "i%d" i in
            claim input_names "input" lineno n;
            n
        in
        Hashtbl.replace var_lit v (Aig.add_input aig name)
      | _ -> fail lineno "malformed input line")
    input_lines;
  let parsed_ands =
    List.map
      (fun (lineno, line) ->
        match words line with
        | [ lhs; r0; r1 ] ->
          let lhs = int_word lineno lhs
          and r0 = int_word lineno r0
          and r1 = int_word lineno r1 in
          if lhs = 0 || lhs land 1 = 1 then
            fail lineno "AND left-hand side %d must be even and positive" lhs;
          if lhs lsr 1 > m || r0 lsr 1 > m || r1 lsr 1 > m then
            fail lineno "literal exceeds header M=%d" m;
          (lineno, lhs lsr 1, r0, r1)
        | _ -> fail lineno "malformed AND line (expected 'lhs rhs0 rhs1')")
      and_lines
  in
  (* Definitions may reference variables defined later in the file; keep
     resolving until no progress (as the BLIF parser does). *)
  let remaining = ref parsed_ands in
  let progress = ref true in
  while !remaining <> [] && !progress do
    progress := false;
    let unresolved = ref [] in
    List.iter
      (fun ((lineno, v, r0, r1) as entry) ->
        if Hashtbl.mem var_lit v then
          fail lineno "variable %d defined twice" v;
        match
          (Hashtbl.find_opt var_lit (r0 lsr 1), Hashtbl.find_opt var_lit (r1 lsr 1))
        with
        | Some l0, Some l1 ->
          let edge l raw = l lxor (raw land 1) in
          Hashtbl.replace var_lit v (Aig.add_and aig (edge l0 r0) (edge l1 r1));
          progress := true
        | _ -> unresolved := entry :: !unresolved)
      !remaining;
    remaining := List.rev !unresolved
  done;
  (match !remaining with
  | [] -> ()
  | (lineno, v, _, _) :: _ ->
    fail lineno "undefined or cyclic literal in the definition of %d" (2 * v));
  List.iteri
    (fun o (lineno, line) ->
      match words line with
      | [ w ] ->
        let l = int_word lineno w in
        if l lsr 1 > m then fail lineno "output literal %d exceeds M=%d" l m;
        let base =
          match Hashtbl.find_opt var_lit (l lsr 1) with
          | Some b -> b
          | None -> fail lineno "output references undefined literal %d" l
        in
        let name =
          match Hashtbl.find_opt output_syms o with
          | Some n -> n
          | None ->
            let n = Printf.sprintf "o%d" o in
            claim output_names "output" lineno n;
            n
        in
        Aig.add_output aig name (base lxor (l land 1))
      | _ -> fail lineno "malformed output line")
    output_lines;
  aig

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse text

let to_string aig =
  let aig = Aig.compact aig in
  let n_ins = Aig.num_inputs aig in
  let n_ands = Aig.num_ands aig in
  let outs = Aig.outputs aig in
  let buffer = Buffer.create (32 * (n_ins + n_ands + List.length outs)) in
  Buffer.add_string buffer
    (Printf.sprintf "aag %d %d 0 %d %d\n" (n_ins + n_ands) n_ins
       (List.length outs) n_ands);
  for i = 1 to n_ins do
    Buffer.add_string buffer (Printf.sprintf "%d\n" (2 * i))
  done;
  List.iter
    (fun (_, l) -> Buffer.add_string buffer (Printf.sprintf "%d\n" l))
    outs;
  for node = 1 + n_ins to n_ins + n_ands do
    Buffer.add_string buffer
      (Printf.sprintf "%d %d %d\n" (2 * node) (Aig.fanin0 aig node)
         (Aig.fanin1 aig node))
  done;
  List.iteri
    (fun i (name, _) ->
      Buffer.add_string buffer (Printf.sprintf "i%d %s\n" i name))
    (Aig.inputs aig);
  List.iteri
    (fun o (name, _) ->
      Buffer.add_string buffer (Printf.sprintf "o%d %s\n" o name))
    outs;
  Buffer.contents buffer

let write_file path aig =
  let oc = open_out_bin path in
  output_string oc (to_string aig);
  close_out oc
