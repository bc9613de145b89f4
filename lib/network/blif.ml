open Twolevel

exception Parse_error of { line : int; message : string }

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

(* Logical lines, each tagged with the 1-based number of its first
   physical line: strip comments, join continuations, drop blanks.
   Continuations are strict: a trailing [\] promises that the very next
   physical line carries the rest of the directive, so a [\] on the last
   line of the file is a parse error (reported at the backslash's own
   physical line), and so is a blank or comment-only line while a
   continuation is pending — silently bridging the gap would let a
   stray blank splice two unrelated directives together. CRLF line
   endings are accepted; the [\r] is trimmed before the backslash is
   looked for. *)
let logical_lines text =
  let raw = String.split_on_char '\n' text in
  (* The final newline of a well-formed file yields one empty trailing
     element; it is not a blank line. *)
  let raw =
    match List.rev raw with "" :: rest -> List.rev rest | _ -> raw
  in
  let strip_comment line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  (* [bs_line] is the physical line of the most recent trailing
     backslash, 0 when no continuation is pending. *)
  let rec join acc start pending bs_line lineno = function
    | [] ->
      if pending <> "" then
        fail bs_line "dangling '\\' continuation at end of file";
      List.rev acc
    | line :: rest ->
      let lineno = lineno + 1 in
      let line = String.trim (strip_comment line) in
      if line = "" then
        if pending <> "" then
          fail lineno
            "blank or comment-only line inside a '\\' continuation"
        else join acc start pending bs_line lineno rest
      else if String.length line > 0 && line.[String.length line - 1] = '\\'
      then
        let chunk = String.sub line 0 (String.length line - 1) in
        let start = if pending = "" then lineno else start in
        join acc start (pending ^ chunk ^ " ") lineno lineno rest
      else if pending <> "" then
        join ((start, pending ^ line) :: acc) 0 "" 0 lineno rest
      else join ((lineno, line) :: acc) 0 "" 0 lineno rest
  in
  join [] 0 "" 0 0 raw

let words line =
  List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.concat " " (String.split_on_char '\t' line)))

type pending_names = {
  line : int; (* physical line of the .names directive *)
  signals : string list; (* inputs @ [output] *)
  mutable on_rows : (int * string) list; (* input patterns for output=1 *)
  mutable off_rows : (int * string) list; (* input patterns for output=0 *)
}

(* Split the logical-line stream at the first [.exdc] directive: the
   SIS dialect puts the external-don't-care section after the main
   model body, with a single [.end] closing the whole file. *)
let split_exdc lines =
  let rec go acc = function
    | [] -> (List.rev acc, [])
    | ((_, line) as entry) :: rest -> (
      match words line with
      | ".exdc" :: _ -> (List.rev acc, rest)
      | _ -> go (entry :: acc) rest)
  in
  go [] lines

let parse_main lines =
  let inputs = ref [] and outputs = ref [] in
  let tables = ref [] (* reversed pending_names list *) in
  let current = ref None in
  let finish () =
    match !current with
    | Some table ->
      tables := table :: !tables;
      current := None
    | None -> ()
  in
  List.iter
    (fun (lineno, line) ->
      match words line with
      | [] -> ()
      | cmd :: args when String.length cmd > 0 && cmd.[0] = '.' -> (
        finish ();
        match cmd with
        | ".model" -> ()
        | ".inputs" ->
          inputs := !inputs @ List.map (fun n -> (lineno, n)) args
        | ".outputs" ->
          outputs := !outputs @ List.map (fun n -> (lineno, n)) args
        | ".names" ->
          if args = [] then fail lineno ".names without signals";
          current :=
            Some { line = lineno; signals = args; on_rows = []; off_rows = [] }
        | ".end" -> ()
        | ".latch" | ".subckt" | ".gate" ->
          fail lineno "unsupported BLIF construct %s" cmd
        | _ -> fail lineno "unknown BLIF directive %s" cmd)
      | row -> (
        match !current with
        | None -> fail lineno "cube row outside .names: %s" line
        | Some table -> (
          match row with
          | [ pattern; "1" ] ->
            table.on_rows <- (lineno, pattern) :: table.on_rows
          | [ pattern; "0" ] ->
            table.off_rows <- (lineno, pattern) :: table.off_rows
          | [ "1" ] when List.length table.signals = 1 ->
            table.on_rows <- (lineno, "") :: table.on_rows
          | [ "0" ] when List.length table.signals = 1 ->
            table.off_rows <- (lineno, "") :: table.off_rows
          | _ -> fail lineno "malformed cube row: %s" line)))
    lines;
  finish ();
  let net = Network.create () in
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun (lineno, n) ->
      if Hashtbl.mem by_name n then fail lineno "duplicate input %s" n
      else Hashtbl.add by_name n (Network.add_input net n))
    !inputs;
  (* Tables may reference signals defined later; create nodes in dependency
     order by iterating until all are resolvable. *)
  let remaining = ref (List.rev !tables) in
  let progress = ref true in
  while !remaining <> [] && !progress do
    progress := false;
    let unresolved = ref [] in
    List.iter
      (fun table ->
        match List.rev table.signals with
        | [] -> assert false
        | out_name :: rev_ins ->
          let in_names = List.rev rev_ins in
          if List.for_all (Hashtbl.mem by_name) in_names then begin
            let fanins =
              Array.of_list (List.map (Hashtbl.find by_name) in_names)
            in
            let nvars = Array.length fanins in
            let row_cube (lineno, pattern) =
              if String.length pattern <> nvars then
                fail lineno "cube row width mismatch for %s" out_name;
              let lits = ref [] in
              String.iteri
                (fun i ch ->
                  match ch with
                  | '1' -> lits := Literal.pos i :: !lits
                  | '0' -> lits := Literal.neg i :: !lits
                  | '-' -> ()
                  | _ -> fail lineno "bad cube character %C for %s" ch out_name)
                pattern;
              match Cube.of_literals !lits with
              | Some c -> c
              | None -> assert false
            in
            let cover =
              match (table.on_rows, table.off_rows) with
              | on, [] -> Cover.of_cubes (List.map row_cube on)
              | [], off ->
                Complement.cover (Cover.of_cubes (List.map row_cube off))
              | _ -> fail table.line "mixed on/off rows for %s" out_name
            in
            if Hashtbl.mem by_name out_name then
              fail table.line "signal %s defined twice" out_name;
            let id = Network.add_logic net ~name:out_name ~fanins cover in
            Hashtbl.add by_name out_name id;
            progress := true
          end
          else unresolved := table :: !unresolved)
      !remaining;
    remaining := List.rev !unresolved
  done;
  (match !remaining with
  | [] -> ()
  | table :: _ -> fail table.line "unresolved or cyclic .names definitions");
  let declared = Hashtbl.create 16 in
  List.iter
    (fun (lineno, po) ->
      if Hashtbl.mem declared po then fail lineno "duplicate output %s" po;
      Hashtbl.add declared po ();
      match Hashtbl.find_opt by_name po with
      | Some id -> Network.add_output net po id
      | None -> fail lineno "undefined output %s" po)
    !outputs;
  Network.check net;
  net

(* ------------------------------------------------------------------ *)
(* .exdc section                                                       *)
(* ------------------------------------------------------------------ *)

(* The external-don't-care dialect understood here (a strict subset of
   SIS's): after [.exdc], flat [.names] tables whose inputs are all
   primary inputs of the *main* model — the union of their onsets is
   the EXCDC cover — plus [.exoec PAT1 PAT2] lines declaring two full
   output patterns (0/1 characters in [.outputs] order)
   interchangeable. Multi-level exdc networks are rejected with a
   file:line error rather than silently mis-read. [.model], [.inputs]
   and [.outputs] lines inside the section are accepted and ignored
   (SIS writes them); the single [.end] closes the whole file. *)
let parse_exdc_lines ~inputs ?outputs lines =
  let input_ok name = List.mem name inputs in
  let cubes = ref [] and pairs = ref [] in
  let tables = ref [] in
  let current = ref None in
  let finish () =
    match !current with
    | Some table ->
      tables := table :: !tables;
      current := None
    | None -> ()
  in
  List.iter
    (fun (lineno, line) ->
      match words line with
      | [] -> ()
      | ".exoec" :: pats -> (
        finish ();
        match (outputs, pats) with
        | None, _ ->
          fail lineno
            ".exoec is not accepted here: only .exdc cubes over primary \
             inputs are used"
        | Some outputs, [ p1; p2 ] ->
          let nouts = List.length outputs in
          let pattern p =
            if String.length p <> nouts then
              fail lineno
                ".exoec pattern %s has %d characters for %d outputs" p
                (String.length p) nouts;
            List.mapi
              (fun i name ->
                match p.[i] with
                | '1' -> (name, true)
                | '0' -> (name, false)
                | c -> fail lineno "bad .exoec pattern character %C" c)
              outputs
          in
          pairs := (pattern p1, pattern p2) :: !pairs
        | Some _, _ -> fail lineno ".exoec expects exactly two output patterns")
      | cmd :: args when String.length cmd > 0 && cmd.[0] = '.' -> (
        finish ();
        match cmd with
        | ".model" | ".inputs" | ".outputs" | ".end" -> ()
        | ".names" ->
          if args = [] then fail lineno ".names without signals";
          (match List.rev args with
          | _out :: rev_ins ->
            List.iter
              (fun n ->
                if not (input_ok n) then
                  fail lineno
                    "exdc table input %s is not a primary input of the main \
                     model (multi-level .exdc is not supported)"
                    n)
              rev_ins
          | [] -> assert false);
          current :=
            Some { line = lineno; signals = args; on_rows = []; off_rows = [] }
        | ".exdc" | ".latch" | ".subckt" | ".gate" ->
          fail lineno "unsupported BLIF construct %s in .exdc section" cmd
        | _ -> fail lineno "unknown BLIF directive %s in .exdc section" cmd)
      | row -> (
        match !current with
        | None -> fail lineno "cube row outside .names: %s" line
        | Some table -> (
          match row with
          | [ pattern; "1" ] ->
            table.on_rows <- (lineno, pattern) :: table.on_rows
          | [ pattern; "0" ] ->
            table.off_rows <- (lineno, pattern) :: table.off_rows
          | [ "1" ] when List.length table.signals = 1 ->
            table.on_rows <- (lineno, "") :: table.on_rows
          | [ "0" ] when List.length table.signals = 1 ->
            table.off_rows <- (lineno, "") :: table.off_rows
          | _ -> fail lineno "malformed cube row: %s" line)))
    lines;
  finish ();
  List.iter
    (fun table ->
      let in_names =
        match List.rev table.signals with
        | _out :: rev_ins -> List.rev rev_ins
        | [] -> assert false
      in
      let nvars = List.length in_names in
      let name_of = Array.of_list in_names in
      let add_cube lineno lits =
        if lits = [] then
          fail lineno "exdc cube forbids every input pattern"
        else cubes := lits :: !cubes
      in
      let row_literals (lineno, pattern) =
        if String.length pattern <> nvars then
          fail lineno "cube row width mismatch in .exdc table";
        let lits = ref [] in
        String.iteri
          (fun i ch ->
            match ch with
            | '1' -> lits := (name_of.(i), true) :: !lits
            | '0' -> lits := (name_of.(i), false) :: !lits
            | '-' -> ()
            | _ -> fail lineno "bad cube character %C in .exdc table" ch)
          pattern;
        List.rev !lits
      in
      match (List.rev table.on_rows, List.rev table.off_rows) with
      | on, [] ->
        List.iter (fun row -> add_cube (fst row) (row_literals row)) on
      | [], off ->
        (* Off-set tables go through the two-level complement; the
           resulting cubes are indexed literals over the table's
           columns. *)
        let row_cube (lineno, pattern) =
          if String.length pattern <> nvars then
            fail lineno "cube row width mismatch in .exdc table";
          let lits = ref [] in
          String.iteri
            (fun i ch ->
              match ch with
              | '1' -> lits := Literal.pos i :: !lits
              | '0' -> lits := Literal.neg i :: !lits
              | '-' -> ()
              | _ -> fail lineno "bad cube character %C in .exdc table" ch)
            pattern;
          match Cube.of_literals !lits with
          | Some c -> c
          | None -> assert false
        in
        let cover = Complement.cover (Cover.of_cubes (List.map row_cube off)) in
        List.iter
          (fun cube ->
            add_cube table.line
              (List.map
                 (fun lit -> (name_of.(Literal.var lit), Literal.is_pos lit))
                 (Cube.literals cube)))
          (Cover.cubes cover)
      | _, _ -> fail table.line "mixed on/off rows in .exdc table")
    (List.rev !tables);
  Dont_care.make ~exoec:(List.rev !pairs) (List.rev !cubes)

let parse_dc text =
  let lines = logical_lines text in
  let main, exdc = split_exdc lines in
  let net = parse_main main in
  let dc =
    parse_exdc_lines
      ~inputs:(List.map (Network.name net) (Network.inputs net))
      ~outputs:(List.map fst (Network.outputs net))
      exdc
  in
  (net, dc)

(* The plain entry points accept (and validate) an inline [.exdc]
   section but discard the view, so DC-oblivious callers keep working
   on DC-annotated files. *)
let parse text = fst (parse_dc text)

let parse_exdc ~inputs ?outputs text =
  let lines = logical_lines text in
  match split_exdc lines with
  | (lineno, line) :: _, _ ->
    fail lineno "expected .exdc as the first directive, found: %s" line
  | [], exdc -> parse_exdc_lines ~inputs ?outputs exdc

let with_file_errors path f =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  f text

let read_file_dc path = with_file_errors path parse_dc
let read_exdc_file ~inputs ?outputs path =
  with_file_errors path (parse_exdc ~inputs ?outputs)

let to_string net =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer ".model network\n";
  let add_signal_list directive names =
    if names <> [] then
      Buffer.add_string buffer
        (Printf.sprintf "%s %s\n" directive (String.concat " " names))
  in
  add_signal_list ".inputs" (List.map (Network.name net) (Network.inputs net));
  add_signal_list ".outputs" (List.map fst (Network.outputs net));
  (* Outputs whose BLIF name differs from the driving node get a buffer
     table so that the name exists as a signal. *)
  let order = Network.topological net in
  List.iter
    (fun id ->
      if not (Network.is_input net id) then begin
        let fanins = Network.fanins net id in
        let in_names =
          Array.to_list (Array.map (Network.name net) fanins)
        in
        Buffer.add_string buffer
          (Printf.sprintf ".names %s\n"
             (String.concat " " (in_names @ [ Network.name net id ])));
        let nvars = Array.length fanins in
        let cover = Network.cover net id in
        if nvars = 0 then begin
          if not (Cover.is_zero cover) then Buffer.add_string buffer "1\n"
        end
        else
          List.iter
            (fun cube ->
              let row = Bytes.make nvars '-' in
              List.iter
                (fun lit ->
                  Bytes.set row (Literal.var lit)
                    (if Literal.is_pos lit then '1' else '0'))
                (Cube.literals cube);
              Buffer.add_string buffer
                (Printf.sprintf "%s 1\n" (Bytes.to_string row)))
            (Cover.cubes cover)
      end)
    order;
  List.iter
    (fun (po_name, id) ->
      if po_name <> Network.name net id then
        Buffer.add_string buffer
          (Printf.sprintf ".names %s %s\n1 1\n" (Network.name net id) po_name))
    (Network.outputs net);
  Buffer.add_string buffer ".end\n";
  Buffer.contents buffer

(* Canonical [.exdc] section: one flat table named [excdc] over the
   union support of all cubes (columns in main-model input order),
   cubes as rows in insertion order, then the [.exoec] pairs. Feeding
   the section back through [parse_exdc] reproduces the view exactly,
   which is what makes [write ∘ parse] a fixpoint. An empty view
   yields the empty string so DC-free output stays byte-identical. *)
let exdc_to_string net dc =
  if Dont_care.is_empty dc then ""
  else begin
    let buffer = Buffer.create 256 in
    Buffer.add_string buffer ".exdc\n";
    let cubes = Dont_care.excdc dc in
    if cubes <> [] then begin
      let support = Hashtbl.create 16 in
      List.iter (List.iter (fun (n, _) -> Hashtbl.replace support n ())) cubes;
      let cols =
        List.filter (Hashtbl.mem support)
          (List.map (Network.name net) (Network.inputs net))
      in
      if Hashtbl.length support <> List.length cols then
        invalid_arg
          "Blif.exdc_to_string: EXCDC cube names a signal that is not a \
           primary input";
      let index = Hashtbl.create 16 in
      List.iteri (fun i n -> Hashtbl.replace index n i) cols;
      Buffer.add_string buffer
        (Printf.sprintf ".names %s excdc\n" (String.concat " " cols));
      List.iter
        (fun cube ->
          let row = Bytes.make (List.length cols) '-' in
          List.iter
            (fun (n, phase) ->
              Bytes.set row (Hashtbl.find index n) (if phase then '1' else '0'))
            cube;
          Buffer.add_string buffer
            (Printf.sprintf "%s 1\n" (Bytes.to_string row)))
        cubes
    end;
    let outputs = List.map fst (Network.outputs net) in
    let nouts = List.length outputs in
    List.iter
      (fun (p1, p2) ->
        let pat p =
          if List.length p <> nouts then
            invalid_arg
              "Blif.exdc_to_string: EXOEC pattern is not a full output \
               pattern";
          String.concat ""
            (List.map
               (fun o ->
                 match List.assoc_opt o p with
                 | Some true -> "1"
                 | Some false -> "0"
                 | None ->
                   invalid_arg
                     (Printf.sprintf
                        "Blif.exdc_to_string: EXOEC pattern misses output %s"
                        o))
               outputs)
        in
        Buffer.add_string buffer
          (Printf.sprintf ".exoec %s %s\n" (pat p1) (pat p2)))
      (Dont_care.exoec dc);
    Buffer.contents buffer
  end

let to_string_dc net dc =
  let base = to_string net in
  let section = exdc_to_string net dc in
  if section = "" then base
  else begin
    (* [to_string] always ends with ".end\n"; splice the section just
       before it. *)
    let tail = ".end\n" in
    let cut = String.length base - String.length tail in
    assert (String.sub base cut (String.length tail) = tail);
    String.sub base 0 cut ^ section ^ tail
  end
