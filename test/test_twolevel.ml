(* Unit and property tests for the two-level cube algebra. *)

open Twolevel

let cover = Parse.cover_default

let cover_testable =
  Alcotest.testable
    (fun fmt c -> Format.pp_print_string fmt (Cover.to_string c))
    Cover.equal

let check_cover = Alcotest.check cover_testable

let check_equiv name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s ≡ %s" name (Cover.to_string expected)
       (Cover.to_string actual))
    true
    (Cover.equivalent expected actual)

(* ------------------------------------------------------------------ *)
(* Literals and cubes                                                  *)
(* ------------------------------------------------------------------ *)

let test_literal_encoding () =
  let a = Literal.pos 0 and a' = Literal.neg 0 in
  Alcotest.(check bool) "pos is pos" true (Literal.is_pos a);
  Alcotest.(check bool) "neg is not pos" false (Literal.is_pos a');
  Alcotest.(check int) "same var" (Literal.var a) (Literal.var a');
  Alcotest.(check bool) "negate" true (Literal.equal (Literal.negate a) a');
  Alcotest.(check bool) "double negate" true
    (Literal.equal (Literal.negate (Literal.negate a)) a);
  Alcotest.(check string) "print pos" "a" (Literal.to_string a);
  Alcotest.(check string) "print neg" "a'" (Literal.to_string a');
  Alcotest.(check string) "print big var" "x30" (Literal.to_string (Literal.pos 30))

let test_cube_normalise () =
  let symtab = Symtab.create () in
  let c = Parse.cube symtab "ab'a" in
  Alcotest.(check int) "duplicate literal collapses" 2 (Cube.size c);
  Alcotest.(check bool) "contradiction rejected" true
    (Cube.of_literals [ Literal.pos 0; Literal.neg 0 ] = None);
  Alcotest.(check bool) "top cube" true (Cube.is_top Cube.top);
  Alcotest.(check string) "top prints as 1" "1" (Cube.to_string Cube.top)

let test_cube_containment () =
  let symtab = Symtab.create () in
  let ab = Parse.cube symtab "ab" in
  let abc = Parse.cube symtab "abc" in
  let ab'c = Parse.cube symtab "ab'c" in
  (* onset(abc) ⊆ onset(ab): abc contained by ab. *)
  Alcotest.(check bool) "abc ⊆ ab" true (Cube.contained_by abc ab);
  Alcotest.(check bool) "ab ⊄ abc" false (Cube.contained_by ab abc);
  Alcotest.(check bool) "ab'c ⊄ ab" false (Cube.contained_by ab'c ab);
  Alcotest.(check bool) "everything ⊆ top" true (Cube.contained_by ab Cube.top);
  Alcotest.(check bool) "self containment" true (Cube.contained_by ab ab)

let test_cube_ops () =
  let symtab = Symtab.create () in
  let ab = Parse.cube symtab "ab" in
  let bc = Parse.cube symtab "bc" in
  let b'c = Parse.cube symtab "b'c" in
  (match Cube.intersect ab bc with
  | Some c -> Alcotest.(check string) "ab ∩ bc" "abc" (Cube.to_string c)
  | None -> Alcotest.fail "ab ∩ bc should exist");
  Alcotest.(check bool) "ab ∩ b'c conflicts" true (Cube.intersect ab b'c = None);
  Alcotest.(check int) "distance ab b'c" 1 (Cube.distance ab b'c);
  Alcotest.(check int) "distance ab bc" 0 (Cube.distance ab bc);
  (match Cube.algebraic_div (Parse.cube symtab "abc") ab with
  | Some q -> Alcotest.(check string) "abc/ab" "c" (Cube.to_string q)
  | None -> Alcotest.fail "abc/ab should divide");
  Alcotest.(check bool) "ab/c undefined" true
    (Cube.algebraic_div ab (Parse.cube symtab "c") = None);
  Alcotest.(check string) "common(abc,abd)" "ab"
    (Cube.to_string (Cube.common (Parse.cube symtab "abc") (Parse.cube symtab "abd")))

let test_cube_cofactor () =
  let symtab = Symtab.create () in
  let ab' = Parse.cube symtab "ab'" in
  let a = Literal.pos (Symtab.intern symtab "a") in
  let b = Literal.pos (Symtab.intern symtab "b") in
  (match Cube.cofactor a ab' with
  | Some c -> Alcotest.(check string) "(ab')_a" "b'" (Cube.to_string c)
  | None -> Alcotest.fail "cofactor by a should exist");
  Alcotest.(check bool) "(ab')_b = 0" true (Cube.cofactor b ab' = None)

(* ------------------------------------------------------------------ *)
(* Covers                                                              *)
(* ------------------------------------------------------------------ *)

let test_cover_basics () =
  let f = cover "ab + cd" in
  Alcotest.(check int) "cube count" 2 (Cover.cube_count f);
  Alcotest.(check int) "literal count" 4 (Cover.literal_count f);
  Alcotest.(check (list int)) "support" [ 0; 1; 2; 3 ] (Cover.support f);
  Alcotest.(check bool) "zero" true (Cover.is_zero Cover.zero);
  Alcotest.(check bool) "one" true (Cover.is_one Cover.one);
  Alcotest.(check string) "print zero" "0" (Cover.to_string Cover.zero)

let test_cover_containment () =
  let f = cover "ab + a'c" in
  let symtab = Symtab.create () in
  Alcotest.(check bool) "f ⊇ abc" true
    (Cover.contains_cube f (Parse.cube symtab "abc"));
  (* bc ⊆ ab + a'c by consensus even though no single cube contains it. *)
  Alcotest.(check bool) "f ⊇ bc (consensus)" true
    (Cover.contains_cube f (Parse.cube symtab "bc"));
  Alcotest.(check bool) "f ⊉ ab'" false
    (Cover.contains_cube f (Parse.cube symtab "ab'"));
  Alcotest.(check bool) "contains itself" true (Cover.contains f f)

let test_cover_equivalence () =
  check_equiv "consensus absorption" (cover "ab + a'c") (cover "ab + a'c + bc");
  check_equiv "xor forms" (cover "ab' + a'b") (cover "a'b + b'a");
  Alcotest.(check bool) "xor ≠ xnor" false
    (Cover.equivalent (cover "ab' + a'b") (cover "ab + a'b'"))

let test_cover_product () =
  check_equiv "distribution"
    (cover "ac + ad + bc + bd")
    (Cover.product (cover "a + b") (cover "c + d"));
  check_equiv "annihilation" Cover.zero (Cover.product (cover "a") (cover "a'"));
  check_equiv "idempotence (boolean, not algebraic)" (cover "a")
    (Cover.product (cover "a") (cover "a"))

let test_cover_sos () =
  (* SOS: every cube of s contained by some cube of g. *)
  let g = cover "ab + cd" in
  Alcotest.(check bool) "abe + cdf SOS of ab+cd" true
    (Cover.sos_of (cover "abe + cdf") g);
  Alcotest.(check bool) "ab SOS of ab+cd" true (Cover.sos_of (cover "ab") g);
  Alcotest.(check bool) "ae not SOS" false (Cover.sos_of (cover "ae") g);
  (* Lemma 1: s SOS of g implies s·g = s. *)
  let s = cover "abe + cdf" in
  check_equiv "lemma 1" s (Cover.product s g)

let test_tautology () =
  Alcotest.(check bool) "a + a'" true (Cover.is_tautology (cover "a + a'"));
  Alcotest.(check bool) "ab+ab'+a'b+a'b'" true
    (Cover.is_tautology (cover "ab + ab' + a'b + a'b'"));
  Alcotest.(check bool) "a + b not taut" false (Cover.is_tautology (cover "a + b"));
  Alcotest.(check bool) "1 is taut" true (Cover.is_tautology Cover.one);
  Alcotest.(check bool) "0 not taut" false (Cover.is_tautology Cover.zero);
  Alcotest.(check bool) "a + a'b + b' taut" true
    (Cover.is_tautology (cover "a + a'b + b'"))

let test_scc () =
  let f = cover "ab + abc + a" in
  Alcotest.(check int) "scc keeps only a" 1
    (Cover.cube_count (Cover.single_cube_containment f));
  check_cover "scc result" (cover "a") (Cover.single_cube_containment f)

let test_minterm_count () =
  Alcotest.(check int) "a over 2 vars" 2
    (Cover.minterm_count ~nvars:2 (cover "a"));
  Alcotest.(check int) "a+b over 2 vars" 3
    (Cover.minterm_count ~nvars:2 (cover "a + b"));
  Alcotest.(check int) "tautology over 3" 8
    (Cover.minterm_count ~nvars:3 Cover.one)

(* ------------------------------------------------------------------ *)
(* Complement / minimize                                               *)
(* ------------------------------------------------------------------ *)

let test_complement () =
  let check_compl name f =
    let fc = Complement.cover f in
    Alcotest.(check bool)
      (name ^ ": f ∧ f' = 0")
      true
      (Cover.is_zero (Cover.product f fc));
    Alcotest.(check bool)
      (name ^ ": f ∨ f' = 1")
      true
      (Cover.is_tautology (Cover.union f fc))
  in
  check_compl "simple" (cover "ab + cd");
  check_compl "xor" (cover "ab' + a'b");
  check_compl "unate" (cover "a + bc");
  check_compl "zero" Cover.zero;
  check_compl "one" Cover.one;
  Alcotest.(check bool) "limited complement bails" true
    (Complement.cover_limited ~limit:1
       (cover "ab + cd + ef + gh + ij + kl + mn")
    = None)

let test_minimize () =
  let f = cover "ab + ab' + a'b" in
  let m = Minimize.simplify f in
  check_equiv "function preserved" f m;
  Alcotest.(check bool) "literal count reduced" true
    (Cover.literal_count m < Cover.literal_count f);
  (* a + b is the minimum: 2 literals. *)
  Alcotest.(check int) "minimal size" 2 (Cover.literal_count m);
  (* Don't cares: f = ab, dc = ab' lets f expand to a. *)
  let m2 = Minimize.simplify ~dc:(cover "ab'") (cover "ab") in
  check_cover "dc expansion" (cover "a") m2

let test_minimize_irredundant () =
  let f = cover "ab + a'c + bc" in
  let m = Minimize.irredundant f in
  check_equiv "irredundant preserves" f m;
  Alcotest.(check int) "consensus cube removed" 2 (Cover.cube_count m)

(* ------------------------------------------------------------------ *)
(* Algebraic division, kernels, factoring                              *)
(* ------------------------------------------------------------------ *)

let test_algebraic_divide () =
  (* Classic example: (ac + ad + bc + bd + e) / (a + b) = c + d, rem e. *)
  let f = cover "ac + ad + bc + bd + e" in
  let d = cover "a + b" in
  let q, r = Algebraic.divide f d in
  check_cover "quotient" (cover "c + d") q;
  check_cover "remainder" (cover "e") r;
  (* Verify the defining identity f = qd + r. *)
  check_equiv "identity" f (Cover.union (Cover.product q d) r)

let test_algebraic_weakness () =
  (* Algebraic division cannot use a'a = 0 etc.: (a + b)/(a' + b) = 0. *)
  let q = Algebraic.quotient (cover "a + b") (cover "a' + b") in
  Alcotest.(check bool) "boolean-only division fails" true (Cover.is_zero q);
  (* Divisor sharing support with quotient is invisible algebraically:
     f = ab + a'c has quotient 0 w.r.t. divisor a + c. *)
  let q2 = Algebraic.quotient (cover "ab + a'c") (cover "a + c") in
  Alcotest.(check bool) "shared support fails" true (Cover.is_zero q2)

let test_kernels () =
  let f = cover "ace + bce + de + g" in
  let kernels = Kernel.distinct_kernels f in
  let mem k = List.exists (Cover.equal (cover k)) kernels in
  Alcotest.(check bool) "a+b kernel" true (mem "a + b");
  Alcotest.(check bool) "ac+bc+d kernel" true (mem "ac + bc + d");
  Alcotest.(check bool) "f itself kernel (cube free)" true
    (mem "ace + bce + de + g");
  (* Every kernel must be cube-free. *)
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "kernel %s cube-free" (Cover.to_string k))
        true (Kernel.is_cube_free k))
    kernels

let test_make_cube_free () =
  let c, g = Kernel.make_cube_free (cover "abc + abd") in
  Alcotest.(check string) "common cube" "ab" (Cube.to_string c);
  check_cover "stripped" (cover "c + d") g

let test_factor () =
  let f = cover "ac + ad + bc + bd + e" in
  let fact = Factor.of_cover f in
  (* (a + b)(c + d) + e: 5 literals vs 9 flat. *)
  Alcotest.(check int) "factored literal count" 5 (Factor.literal_count fact);
  Alcotest.(check int) "count api" 5 (Factor.count f);
  Alcotest.(check bool) "never worse than flat" true
    (Factor.count f <= Cover.literal_count f)

let test_factor_eval () =
  let f = cover "ab + ac + d" in
  let fact = Factor.of_cover f in
  (* Exhaustive agreement between the factored form and the cover. *)
  for bits = 0 to 15 do
    let assign v = bits land (1 lsl v) <> 0 in
    Alcotest.(check bool)
      (Printf.sprintf "assignment %d" bits)
      (Cover.eval assign f) (Factor.eval assign fact)
  done

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse () =
  let symtab = Symtab.create () in
  let f = Parse.cover symtab "ab' + c" in
  Alcotest.(check int) "two cubes" 2 (Cover.cube_count f);
  Alcotest.(check string) "roundtrip" "ab' + c"
    (Cover.to_string ~names:(Symtab.names symtab) f);
  check_cover "constant 1" Cover.one (cover "1");
  check_cover "constant 0" Cover.zero (cover "0");
  check_cover "contradiction is 0" Cover.zero (cover "aa'");
  let multi = cover "x1 x2" in
  Alcotest.(check int) "multichar idents: one cube" 1 (Cover.cube_count multi);
  Alcotest.(check int) "multichar idents: two literals" 2
    (Cover.literal_count multi);
  Alcotest.check_raises "garbage rejected" (Parse.Syntax_error "unexpected character '?' at offset 0")
    (fun () -> ignore (cover "?"))

let test_parse_spaces_and_ops () =
  check_cover "star as and" (cover "ab") (cover "a * b");
  check_cover "bang as not" (cover "a'") (cover "!a" |> fun c -> c);
  ()

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

let nvars = 5

let gen_cube =
  QCheck2.Gen.(
    let* lits =
      list_size (int_range 0 4)
        (let* v = int_range 0 (nvars - 1) in
         let* phase = bool in
         return (Literal.make v phase))
    in
    return (Cube.of_literals lits))

let gen_cover =
  QCheck2.Gen.(
    let* cubes = list_size (int_range 0 6) gen_cube in
    return (Cover.of_cubes (List.filter_map Fun.id cubes)))

let print_cover = Cover.to_string

let same_function f g =
  let ok = ref true in
  for bits = 0 to (1 lsl nvars) - 1 do
    let assign v = bits land (1 lsl v) <> 0 in
    if Cover.eval assign f <> Cover.eval assign g then ok := false
  done;
  !ok

let prop_complement =
  QCheck2.Test.make ~name:"complement is pointwise negation" ~count:300
    ~print:print_cover gen_cover (fun f ->
      let fc = Complement.cover f in
      let ok = ref true in
      for bits = 0 to (1 lsl nvars) - 1 do
        let assign v = bits land (1 lsl v) <> 0 in
        if Cover.eval assign f = Cover.eval assign fc then ok := false
      done;
      !ok)

let prop_minimize_preserves =
  QCheck2.Test.make ~name:"simplify preserves the function" ~count:300
    ~print:print_cover gen_cover (fun f ->
      let m = Minimize.simplify f in
      same_function f m && Cover.literal_count m <= Cover.literal_count f)

let prop_factor_preserves =
  QCheck2.Test.make ~name:"factoring preserves the function" ~count:300
    ~print:print_cover gen_cover (fun f ->
      let fact = Factor.of_cover f in
      let ok = ref true in
      for bits = 0 to (1 lsl nvars) - 1 do
        let assign v = bits land (1 lsl v) <> 0 in
        if Cover.eval assign f <> Factor.eval assign fact then ok := false
      done;
      !ok && Factor.literal_count fact <= Cover.literal_count f)

(* More distinct covers per case than the memo tables hold (64 entries),
   each asked for twice, so lookups land both before and after the
   tables are emptied. *)
let gen_many_covers =
  QCheck2.Gen.(list_size (int_range 100 200) gen_cover)

let print_covers cs = String.concat " ; " (List.map print_cover cs)

let prop_memo_complement =
  QCheck2.Test.make ~name:"memoised complement equals the composition"
    ~count:20 ~print:print_covers gen_many_covers (fun covers ->
      List.for_all
        (fun c ->
          List.for_all
            (fun limit ->
              let expect =
                Option.map Minimize.simplify (Complement.cover_limited ~limit c)
              in
              Option.equal Cover.equal (Minimize.complement ~limit c) expect)
            [ 2; 1024 ])
        (covers @ covers))

let prop_memo_factor_count =
  QCheck2.Test.make ~name:"memoised factored count equals the factoring"
    ~count:20 ~print:print_covers gen_many_covers (fun covers ->
      List.for_all
        (fun c -> Factor.count c = Factor.literal_count (Factor.of_cover c))
        (covers @ covers))

let prop_algebraic_identity =
  QCheck2.Test.make ~name:"algebraic division identity f = qd + r" ~count:300
    ~print:(fun (f, d) -> print_cover f ^ " / " ^ print_cover d)
    QCheck2.Gen.(pair gen_cover gen_cover)
    (fun (f, d) ->
      let q, r = Algebraic.divide f d in
      same_function f (Cover.union (Cover.product q d) r))

let prop_tautology_matches_eval =
  QCheck2.Test.make ~name:"tautology check agrees with evaluation" ~count:300
    ~print:print_cover gen_cover (fun f ->
      let taut = Cover.is_tautology f in
      let all_true = ref true in
      for bits = 0 to (1 lsl nvars) - 1 do
        let assign v = bits land (1 lsl v) <> 0 in
        if not (Cover.eval assign f) then all_true := false
      done;
      taut = !all_true)

let prop_containment_matches_eval =
  QCheck2.Test.make ~name:"cover containment agrees with evaluation"
    ~count:300
    ~print:(fun (f, g) -> print_cover f ^ " ⊇? " ^ print_cover g)
    QCheck2.Gen.(pair gen_cover gen_cover)
    (fun (f, g) ->
      let contains = Cover.contains f g in
      let pointwise = ref true in
      for bits = 0 to (1 lsl nvars) - 1 do
        let assign v = bits land (1 lsl v) <> 0 in
        if Cover.eval assign g && not (Cover.eval assign f) then
          pointwise := false
      done;
      contains = !pointwise)

let prop_sos_lemma1 =
  QCheck2.Test.make ~name:"Lemma 1: s SOS of g ⇒ s·g = s" ~count:300
    ~print:(fun (s, g) -> print_cover s ^ " sos of " ^ print_cover g)
    QCheck2.Gen.(pair gen_cover gen_cover)
    (fun (s, g) ->
      QCheck2.assume (Cover.sos_of s g);
      same_function s (Cover.product s g))

let prop_kernels_divide =
  QCheck2.Test.make ~name:"co-kernel × kernel stays inside f" ~count:200
    ~print:print_cover gen_cover (fun f ->
      List.for_all
        (fun (ck, k) ->
          (* Each cube of ck·k must be a cube of f. *)
          List.for_all
            (fun kc ->
              match Cube.intersect ck kc with
              | None -> false
              | Some c -> List.exists (Cube.equal c) (Cover.cubes f))
            (Cover.cubes k))
        (Kernel.all f))


(* ------------------------------------------------------------------ *)
(* Reduce                                                              *)
(* ------------------------------------------------------------------ *)

let test_reduce () =
  (* In ab + b', reducing b' against ab changes nothing essential, but in
     a + ab' the cube a reduces while staying a cover. *)
  let f = cover "ab + a'b + ab'" in
  let reduced = Minimize.reduce f in
  check_equiv "reduce preserves" f reduced;
  (* Each reduced cube is contained in its original. *)
  List.iter2
    (fun r o ->
      Alcotest.(check bool) "shrunk within original" true (Cube.contained_by r o))
    (List.sort Cube.compare (Cover.cubes reduced))
    (List.sort Cube.compare (Cover.cubes f))

let prop_reduce_preserves =
  QCheck2.Test.make ~name:"reduce preserves the function" ~count:300
    ~print:print_cover gen_cover (fun f ->
      same_function f (Minimize.reduce f))

(* ------------------------------------------------------------------ *)
(* Differential suite: packed Cube_kernel vs the seed's list cubes     *)
(* ------------------------------------------------------------------ *)

(* The seed's list-based cube algebra, ported verbatim as an in-test
   oracle: a cube is a strictly increasing list of literal codes, a
   cover a sorted duplicate-free list of such cubes. Every packed-kernel
   operation must agree with it exactly — including tie-breaking and
   ordering, since cover canonicalisation order feeds cube indices all
   over the network layers. *)
module Oracle = struct
  module Int_map = Map.Make (Int)

  let rec normalise = function
    | [] -> Some []
    | [ l ] -> Some [ l ]
    | l1 :: (l2 :: _ as rest) ->
      if l1 = l2 then normalise rest
      else if l1 / 2 = l2 / 2 then None
      else begin
        match normalise rest with
        | None -> None
        | Some rest' -> Some (l1 :: rest')
      end

  let rec subset small big =
    match (small, big) with
    | [], _ -> true
    | _ :: _, [] -> false
    | s :: srest, b :: brest ->
      if s = b then subset srest brest
      else if b < s then subset small brest
      else false

  let contained_by c1 c2 = subset c2 c1

  let rec merge c1 c2 =
    match (c1, c2) with
    | [], c | c, [] -> Some c
    | l1 :: r1, l2 :: r2 ->
      if l1 = l2 then Option.map (fun rest -> l1 :: rest) (merge r1 r2)
      else if l1 / 2 = l2 / 2 then None
      else if l1 < l2 then Option.map (fun rest -> l1 :: rest) (merge r1 c2)
      else Option.map (fun rest -> l2 :: rest) (merge c1 r2)

  let distance c1 c2 =
    let rec go acc c1 c2 =
      match (c1, c2) with
      | [], _ | _, [] -> acc
      | l1 :: r1, l2 :: r2 ->
        if l1 / 2 = l2 / 2 then go (if l1 = l2 then acc else acc + 1) r1 r2
        else if l1 < l2 then go acc r1 c2
        else go acc c1 r2
    in
    go 0 c1 c2

  let common c1 c2 = List.filter (fun l -> List.mem l c2) c1

  let cofactor code cube =
    if List.mem (code lxor 1) cube then None
    else Some (List.filter (fun c -> c <> code) cube)

  let canonical cubes = List.sort_uniq Stdlib.compare cubes

  (* Seed tautology check: unate reduction, then binate split. *)
  let occurrences cubes =
    let add map code =
      let v = code / 2 in
      let p, n = Option.value (Int_map.find_opt v map) ~default:(0, 0) in
      let entry = if code land 1 = 0 then (p + 1, n) else (p, n + 1) in
      Int_map.add v entry map
    in
    List.fold_left (fun map cube -> List.fold_left add map cube) Int_map.empty
      cubes

  let cofactor_cubes code cubes = List.filter_map (cofactor code) cubes

  let rec tautology cubes =
    if List.exists (fun c -> c = []) cubes then true
    else
      match cubes with
      | [] -> false
      | _ ->
        let occ = occurrences cubes in
        let unate =
          Int_map.fold
            (fun v (p, n) acc ->
              match acc with
              | Some _ -> acc
              | None ->
                if p = 0 then Some (2 * v)
                else if n = 0 then Some ((2 * v) + 1)
                else None)
            occ None
        in
        begin
          match unate with
          | Some against -> tautology (cofactor_cubes against cubes)
          | None ->
            let v, _ =
              Int_map.fold
                (fun v (p, n) (best_v, best_c) ->
                  if p + n > best_c then (v, p + n) else (best_v, best_c))
                occ (-1, -1)
            in
            tautology (cofactor_cubes (2 * v) cubes)
            && tautology (cofactor_cubes ((2 * v) + 1) cubes)
        end

  (* Seed cover containment: tautology of the cofactor by the cube. *)
  let contains_cube cubes c =
    tautology
      (canonical
         (List.filter_map
            (fun cube ->
              if List.exists (fun l -> List.mem (l lxor 1) cube) c then None
              else Some (List.filter (fun l -> not (List.mem l c)) cube))
            cubes))

  (* Seed complement: split on the most binate variable (same Hashtbl
     insertion sequence as the production module, so fold order and thus
     variable choice agree). *)
  let most_binate_var cubes =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun cube ->
        List.iter
          (fun code ->
            let v = code / 2 in
            let p, n = Option.value (Hashtbl.find_opt tbl v) ~default:(0, 0) in
            if code land 1 = 0 then Hashtbl.replace tbl v (p + 1, n)
            else Hashtbl.replace tbl v (p, n + 1))
          cube)
      cubes;
    Hashtbl.fold
      (fun v (p, n) best ->
        let score = (min p n * 1000) + p + n in
        match best with
        | Some (_, best_score) when best_score >= score -> best
        | _ -> Some (v, score))
      tbl None

  let add_literal code cube = merge [ code ] cube

  let rec complement cubes =
    if List.exists (fun c -> c = []) cubes then []
    else
      match cubes with
      | [] -> [ [] ]
      | [ c ] -> canonical (List.map (fun code -> [ code lxor 1 ]) c)
      | _ ->
        let v =
          match most_binate_var cubes with Some (v, _) -> v | None -> assert false
        in
        let pos = 2 * v and neg = (2 * v) + 1 in
        let cpos = complement (cofactor_cubes pos cubes) in
        let cneg = complement (cofactor_cubes neg cubes) in
        let attach code branch =
          List.filter_map (fun c -> add_literal code c) branch
        in
        attach pos cpos @ attach neg cneg

  (* Seed KERNEL1. *)
  let common_cube cover =
    match cover with [] -> [] | first :: rest -> List.fold_left common first rest

  let make_cube_free cover =
    let c = common_cube cover in
    if c = [] then (c, cover)
    else
      ( c,
        canonical
          (List.map (fun cube -> List.filter (fun l -> not (List.mem l c)) cube)
             cover) )

  let is_cube_free cover = List.length cover >= 2 && common_cube cover = []

  let literal_quotient lit cover =
    canonical
      (List.filter_map
         (fun c ->
           if List.mem lit c then Some (List.filter (fun l -> l <> lit) c)
           else None)
         cover)

  let distinct_kernels cover =
    let lits =
      Array.of_list (List.sort_uniq Int.compare (List.concat cover))
    in
    let index_of lit =
      let rec go i = if lits.(i) = lit then i else go (i + 1) in
      go 0
    in
    let results = ref [] in
    let rec explore start cokernel g =
      if is_cube_free g then results := g :: !results;
      for i = start to Array.length lits - 1 do
        let lit = lits.(i) in
        let occurrences =
          List.length (List.filter (List.mem lit) g)
        in
        if occurrences >= 2 then begin
          let c, q_free = make_cube_free (literal_quotient lit g) in
          let duplicate = List.exists (fun l -> index_of l < i) c in
          if not duplicate then begin
            match add_literal lit cokernel with
            | None -> ()
            | Some ck_with_lit ->
              begin
                match merge ck_with_lit c with
                | None -> ()
                | Some ck -> explore (i + 1) ck q_free
              end
          end
        end
      done
    in
    explore 0 [] cover;
    List.sort_uniq Stdlib.compare !results

  (* The minimiser before truth tables: every containment is a
     tautology of the cofactor, and REDUCE always goes through the
     bounded Shannon complement. *)
  module Minimize = struct
    let contains_cube t c =
      Tautology.check (Cover.cubes (Cover.cofactor_cube c t))

    let expand ?(dc = Cover.zero) cover =
      let base = Cover.union cover dc in
      let expand_cube cube =
        let rec go cube = function
          | [] -> cube
          | lit :: rest ->
            let candidate = Cube.remove_literal lit cube in
            if contains_cube base candidate then go candidate rest
            else go cube rest
        in
        go cube (Cube.literals cube)
      in
      Cover.single_cube_containment
        (Cover.of_cubes (List.map expand_cube (Cover.cubes cover)))

    let irredundant ?(dc = Cover.zero) cover =
      let ordered =
        List.sort
          (fun c1 c2 -> Int.compare (Cube.size c2) (Cube.size c1))
          (Cover.cubes cover)
      in
      let rec go kept = function
        | [] -> List.rev kept
        | cube :: rest ->
          let others = Cover.of_cubes (kept @ rest) in
          if contains_cube (Cover.union others dc) cube then go kept rest
          else go (cube :: kept) rest
      in
      Cover.of_cubes (go [] ordered)

    let supercube cover =
      match Cover.cubes cover with
      | [] -> None
      | first :: rest -> Some (List.fold_left Cube.common first rest)

    let reduce ?(dc = Cover.zero) cover =
      let rec go kept = function
        | [] -> List.rev kept
        | cube :: rest ->
          let others = Cover.union (Cover.of_cubes (kept @ rest)) dc in
          let reduced =
            match Complement.cover_limited ~limit:256 others with
            | None -> cube
            | Some off -> (
              let essential = Cover.product_cube cube off in
              match supercube essential with
              | None -> cube
              | Some core -> (
                match Cube.intersect core cube with
                | Some shrunk -> shrunk
                | None -> cube))
          in
          go (reduced :: kept) rest
      in
      Cover.of_cubes (go [] (Cover.cubes cover))

    let simplify ?(dc = Cover.zero) cover =
      let step c =
        let c =
          irredundant ~dc (expand ~dc (Cover.single_cube_containment c))
        in
        irredundant ~dc (expand ~dc (reduce ~dc c))
      in
      let rec fixpoint budget c =
        let c' = step c in
        if budget = 0 || Cover.equal c' c then c' else fixpoint (budget - 1) c'
      in
      let result = fixpoint 2 cover in
      if Cover.literal_count result <= Cover.literal_count cover then result
      else cover
  end

  (* [Minimize] before it fixed one table space per call: containment
     and REDUCE build a table space and the tables per query. *)
  module Minimize_per_query = struct
    let expand ?(dc = Cover.zero) cover =
      let inside_base = Cover.containment (Cover.union cover dc) in
      let expand_cube cube =
        (* Try dropping literals one at a time; a drop is valid when the grown
           cube is still contained in onset ∪ dc. *)
        let rec go cube = function
          | [] -> cube
          | lit :: rest ->
            let candidate = Cube.remove_literal lit cube in
            if inside_base candidate then go candidate rest
            else go cube rest
        in
        go cube (Cube.literals cube)
      in
      Cover.single_cube_containment
        (Cover.of_cubes (List.map expand_cube (Cover.cubes cover)))

    let irredundant ?(dc = Cover.zero) cover =
      (* Largest cubes first: prefer keeping big cubes, dropping specific ones. *)
      let ordered =
        List.sort
          (fun c1 c2 -> Int.compare (Cube.size c2) (Cube.size c1))
          (Cover.cubes cover)
      in
      let rec go kept = function
        | [] -> List.rev kept
        | cube :: rest ->
          let others = Cover.of_cubes (kept @ rest) in
          if Cover.contains_cube (Cover.union others dc) cube then go kept rest
          else go (cube :: kept) rest
      in
      Cover.of_cubes (go [] ordered)

    let reduce_complement_limit = 256

    (* Up to this many variables the Shannon complement of [others] has at
       most 256 cubes: a leaf of the recursion at depth d yields at most
       max(1, 8 - d) of them, and the leaves satisfy sum 2^-d <= 1. So the
       [reduce_complement_limit] fallback cannot fire, and the truth table
       path computes exactly what the complement path would. *)
    let reduce_table_vars = 8

    (* Supercube (smallest containing cube) of a cover. *)
    let supercube cover =
      match Cover.cubes cover with
      | [] -> None
      | first :: rest -> Some (List.fold_left Cube.common first rest)

    (* The supercube of the part of [cube] that [others] does not cover:
       [None] when that part is empty, or when the complement of [others]
       exceeds its limit. The supercube of non-empty cubes is the smallest
       cube containing their union, so it depends only on the function, and
       a truth table computes the same cube as the complement. *)
    let essential_supercube cube others =
      match
        Truth_table.space ~limit:reduce_table_vars (cube :: Cover.cubes others)
      with
      | Some vars ->
        Truth_table.supercube
          (Truth_table.diff
             (Truth_table.of_cubes vars [ cube ])
             (Truth_table.of_cubes vars (Cover.cubes others)))
      | None ->
        Option.bind
          (Complement.cover_limited ~limit:reduce_complement_limit others)
          (fun off -> supercube (Cover.product_cube cube off))

    let reduce ?(dc = Cover.zero) cover =
      let rec go kept = function
        | [] -> List.rev kept
        | cube :: rest ->
          let others = Cover.union (Cover.of_cubes (kept @ rest)) dc in
          (* An empty essential part leaves the cube for irredundant to
             remove. *)
          let reduced =
            match essential_supercube cube others with
            | None -> cube
            | Some core -> (
              match Cube.intersect core cube with
              | Some shrunk -> shrunk
              | None -> cube)
          in
          go (reduced :: kept) rest
      in
      Cover.of_cubes (go [] (Cover.cubes cover))

    let simplify ?(dc = Cover.zero) cover =
      let step c =
        let c = irredundant ~dc (expand ~dc (Cover.single_cube_containment c)) in
        irredundant ~dc (expand ~dc (reduce ~dc c))
      in
      let rec fixpoint budget c =
        let c' = step c in
        if budget = 0 || Cover.equal c' c then c' else fixpoint (budget - 1) c'
      in
      let result = fixpoint 2 cover in
      if Cover.literal_count result <= Cover.literal_count cover then result
      else cover

    let complement ~limit cover =
      Option.map simplify (Complement.cover_limited ~limit cover)
  end
end

(* Conversions between code lists and the packed representation. *)
let cube_of_codes codes =
  Cube.of_literals (List.map Literal.of_code codes)

let codes_of_cube c = List.map Literal.code (Cube.literals c)

let cover_of_code_lists lists =
  Cover.of_cubes
    (List.map
       (fun codes ->
         match cube_of_codes codes with
         | Some c -> c
         | None -> Alcotest.fail "generator produced a contradictory cube")
       lists)

let diff_cases = 1000

(* Random raw literal-code lists (possibly unsorted, duplicated or
   contradictory) plus normalised cubes over enough variables to span
   several kernel words. *)
let gen_codes rng ~nvars ~max_size =
  List.init
    (Rar_util.Rng.int rng (max_size + 1))
    (fun _ ->
      (2 * Rar_util.Rng.int rng nvars) + if Rar_util.Rng.bool rng then 1 else 0)

let gen_cube_codes rng ~nvars ~max_size =
  let rec retry () =
    match Oracle.normalise (List.sort_uniq Int.compare (gen_codes rng ~nvars ~max_size)) with
    | Some codes -> codes
    | None -> retry ()
  in
  retry ()

let diff_nvars = 70 (* 140 bits: three kernel words *)

let test_diff_normalise () =
  let rng = Rar_util.Rng.create 11 in
  for _ = 1 to diff_cases do
    let raw = gen_codes rng ~nvars:diff_nvars ~max_size:12 in
    let oracle =
      Oracle.normalise (List.sort_uniq Int.compare raw)
    in
    let packed =
      Option.map codes_of_cube
        (Cube.of_literals (List.map Literal.of_code raw))
    in
    Alcotest.(check (option (list int))) "normalise agrees" oracle packed
  done

let test_diff_containment () =
  let rng = Rar_util.Rng.create 12 in
  for case = 1 to diff_cases do
    let a = gen_cube_codes rng ~nvars:diff_nvars ~max_size:10 in
    (* Half the cases test a genuinely related pair: b extends a, so the
       true branch of containment is exercised, not just random misses. *)
    let b =
      if case mod 2 = 0 then gen_cube_codes rng ~nvars:diff_nvars ~max_size:10
      else
        match
          Oracle.merge a (gen_cube_codes rng ~nvars:diff_nvars ~max_size:4)
        with
        | Some ext -> ext
        | None -> a
    in
    let ca = Option.get (cube_of_codes a) and cb = Option.get (cube_of_codes b) in
    Alcotest.(check bool) "contained_by agrees" (Oracle.contained_by b a)
      (Cube.contained_by cb ca);
    Alcotest.(check bool) "contained_by sym agrees" (Oracle.contained_by a b)
      (Cube.contained_by ca cb)
  done

let test_diff_intersect () =
  let rng = Rar_util.Rng.create 13 in
  for _ = 1 to diff_cases do
    let a = gen_cube_codes rng ~nvars:diff_nvars ~max_size:10 in
    let b = gen_cube_codes rng ~nvars:diff_nvars ~max_size:10 in
    let oracle = Oracle.merge a b in
    let packed =
      Option.map codes_of_cube
        (Cube.intersect (Option.get (cube_of_codes a))
           (Option.get (cube_of_codes b)))
    in
    Alcotest.(check (option (list int))) "intersect agrees" oracle packed
  done

let test_diff_distance () =
  let rng = Rar_util.Rng.create 14 in
  for _ = 1 to diff_cases do
    let a = gen_cube_codes rng ~nvars:diff_nvars ~max_size:10 in
    let b = gen_cube_codes rng ~nvars:diff_nvars ~max_size:10 in
    Alcotest.(check int) "distance agrees" (Oracle.distance a b)
      (Cube.distance (Option.get (cube_of_codes a))
         (Option.get (cube_of_codes b)))
  done

(* Cover canonicalisation order decides cube indices network-wide, so the
   packed compare must reproduce Stdlib.compare on sorted code lists. *)
let test_diff_compare () =
  let rng = Rar_util.Rng.create 15 in
  for _ = 1 to diff_cases do
    let a = gen_cube_codes rng ~nvars:diff_nvars ~max_size:8 in
    let b = gen_cube_codes rng ~nvars:diff_nvars ~max_size:8 in
    let sign n = Stdlib.compare n 0 in
    Alcotest.(check int) "compare agrees"
      (sign (Stdlib.compare a b))
      (sign
         (Cube.compare (Option.get (cube_of_codes a))
            (Option.get (cube_of_codes b))));
    Alcotest.(check int) "compare reflexive" 0
      (Cube.compare (Option.get (cube_of_codes a))
         (Option.get (cube_of_codes a)))
  done

let gen_cover_codes rng ~nvars ~max_cubes ~max_size =
  Oracle.canonical
    (List.init
       (Rar_util.Rng.int rng (max_cubes + 1))
       (fun _ -> gen_cube_codes rng ~nvars ~max_size))

let test_diff_tautology () =
  let rng = Rar_util.Rng.create 16 in
  for _ = 1 to diff_cases do
    let cubes = gen_cover_codes rng ~nvars:5 ~max_cubes:8 ~max_size:3 in
    Alcotest.(check bool) "tautology agrees" (Oracle.tautology cubes)
      (Cover.is_tautology (cover_of_code_lists cubes))
  done

let test_diff_complement () =
  let rng = Rar_util.Rng.create 17 in
  for _ = 1 to diff_cases do
    let cubes = gen_cover_codes rng ~nvars:5 ~max_cubes:6 ~max_size:3 in
    let oracle = Oracle.canonical (Oracle.complement cubes) in
    let packed =
      List.map codes_of_cube
        (Cover.cubes (Complement.cover (cover_of_code_lists cubes)))
    in
    Alcotest.(check (list (list int))) "complement agrees" oracle packed
  done

let test_diff_kernels () =
  let rng = Rar_util.Rng.create 18 in
  for _ = 1 to diff_cases do
    let cubes = gen_cover_codes rng ~nvars:8 ~max_cubes:6 ~max_size:4 in
    let oracle = Oracle.distinct_kernels cubes in
    let packed =
      List.map
        (fun k -> List.map codes_of_cube (Cover.cubes k))
        (Kernel.distinct_kernels (cover_of_code_lists cubes))
    in
    Alcotest.(check (list (list (list int)))) "distinct kernels agree" oracle
      packed
  done

(* Covers over sparse variable ids (0-300, like lifted node ids), so the
   truth tables see both sides of their variable cutoffs. *)
let sparse_vars rng ~max_vars =
  let n = Rar_util.Rng.int rng (max_vars + 1) in
  let rec pick acc =
    if List.length acc = n then Array.of_list acc
    else
      let v = Rar_util.Rng.int rng 301 in
      pick (if List.mem v acc then acc else v :: acc)
  in
  pick []

(* Each variable is absent with probability 1/2, else in either phase. *)
let sparse_cube rng vars =
  Cube.of_literals_exn
    (List.filter_map
       (fun v ->
         match Rar_util.Rng.int rng 4 with
         | 2 -> Some (Literal.pos v)
         | 3 -> Some (Literal.neg v)
         | _ -> None)
       (Array.to_list vars))

let sparse_cover rng vars ~max_cubes =
  Cover.of_cubes
    (List.init (Rar_util.Rng.int rng (max_cubes + 1)) (fun _ ->
         sparse_cube rng vars))

let test_diff_sparse_containment () =
  let rng = Rar_util.Rng.create 19 in
  let wide = ref 0 and narrow = ref 0 in
  for case = 1 to diff_cases do
    let vars = sparse_vars rng ~max_vars:12 in
    let t = sparse_cover rng vars ~max_cubes:10 in
    if List.length (Cover.support t) > Truth_table.max_vars then incr wide
    else incr narrow;
    (* Queries mention the cover's variables and others it does not;
       every other one extends a cube of the cover, so the true branch
       is exercised too. *)
    let query_vars =
      Array.append vars
        (Array.of_list
           (List.filter
              (fun v -> not (Array.mem v vars))
              (Array.to_list (sparse_vars rng ~max_vars:3))))
    in
    let query =
      let random = sparse_cube rng query_vars in
      match Cover.cubes t with
      | cube :: _ when case mod 2 = 0 -> (
        match Cube.intersect cube random with Some c -> c | None -> cube)
      | _ -> random
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s contains %s" (Cover.to_string t)
         (Cube.to_string query))
      (Oracle.contains_cube
         (List.map codes_of_cube (Cover.cubes t))
         (codes_of_cube query))
      (Cover.contains_cube t query)
  done;
  Alcotest.(check bool) "both sides of the cutoff ran" true
    (!wide > 50 && !narrow > 50)

let test_diff_minimize () =
  let rng = Rar_util.Rng.create 20 in
  for case = 1 to 300 do
    let vars = sparse_vars rng ~max_vars:10 in
    let f = sparse_cover rng vars ~max_cubes:8 in
    let dc =
      if case mod 2 = 0 then Cover.zero else sparse_cover rng vars ~max_cubes:2
    in
    let label pass =
      Printf.sprintf "%s of %s (dc %s)" pass (Cover.to_string f)
        (Cover.to_string dc)
    in
    check_cover (label "reduce") (Oracle.Minimize.reduce ~dc f)
      (Minimize.reduce ~dc f);
    check_cover (label "simplify")
      (Oracle.Minimize.simplify ~dc f)
      (Minimize.simplify ~dc f)
  done

(* Single-space [simplify] must equal the per-query version on sparse
   covers on both sides of the 8-variable cut, with and without dc, and
   [complement] must be unchanged. *)
let test_diff_single_space () =
  let rng = Rar_util.Rng.create 22 in
  let narrow = ref 0 and wide = ref 0 in
  for case = 0 to 439 do
    (* 0 to 10 variables in turn. *)
    let rec pick acc =
      if List.length acc = case mod 11 then Array.of_list acc
      else
        let v = Rar_util.Rng.int rng 301 in
        pick (if List.mem v acc then acc else v :: acc)
    in
    let vars = pick [] in
    let f = sparse_cover rng vars ~max_cubes:8 in
    let dc =
      if case mod 2 = 0 then Cover.zero else sparse_cover rng vars ~max_cubes:2
    in
    if List.length (Cover.support (Cover.union f dc)) <= 8 then incr narrow
    else incr wide;
    let label pass =
      Printf.sprintf "%s of %s (dc %s)" pass (Cover.to_string f)
        (Cover.to_string dc)
    in
    let frozen = Oracle.Minimize_per_query.(simplify ~dc f) in
    check_cover (label "simplify") frozen (Minimize.simplify ~dc f);
    check_cover (label "expand")
      (Oracle.Minimize_per_query.expand ~dc f)
      (Minimize.expand ~dc f);
    check_cover (label "irredundant")
      (Oracle.Minimize_per_query.irredundant ~dc f)
      (Minimize.irredundant ~dc f);
    check_cover (label "reduce")
      (Oracle.Minimize_per_query.reduce ~dc f)
      (Minimize.reduce ~dc f);
    List.iter
      (fun limit ->
        Alcotest.(check (option string))
          (label (Printf.sprintf "complement %d" limit))
          (Option.map Cover.to_string
             (Oracle.Minimize_per_query.complement ~limit f))
          (Option.map Cover.to_string (Minimize.complement ~limit f)))
      [ 4; 64 ]
  done;
  Alcotest.(check bool) "both sides of the cut ran" true
    (!narrow > 40 && !wide > 40)

(* REDUCE's truth table path rests on this: a cover of at most 8
   variables has a Shannon complement of at most 256 cubes. *)
let test_complement_bound () =
  let rng = Rar_util.Rng.create 21 in
  let parity =
    Cover.of_cubes
      (List.filter_map
         (fun m ->
           let lits =
             List.init 8 (fun v -> Literal.make v (m land (1 lsl v) <> 0))
           in
           if List.length (List.filter Literal.is_pos lits) mod 2 = 1 then
             Some (Cube.of_literals_exn lits)
           else None)
         (List.init 256 Fun.id))
  in
  let random =
    List.init diff_cases (fun _ ->
        let vars = sparse_vars rng ~max_vars:8 in
        sparse_cover rng vars ~max_cubes:40)
  in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "complement of %s fits" (Cover.to_string c))
        true
        (Complement.cover_limited ~limit:256 c <> None))
    (parity :: random)

(* ------------------------------------------------------------------ *)
(* Grep gate: no list-walk cube logic outside Cube_kernel              *)
(* ------------------------------------------------------------------ *)

(* The refactored view modules must stay thin: any reappearance of
   list-merge cube code (recursive list walks, List.mem/List.filter over
   literal lists) belongs in Cube_kernel instead. Source files are
   declared as dune deps of this test, so the paths resolve inside
   _build. *)
let test_no_list_cube_logic () =
  let forbidden = [ "List.mem"; "List.filter"; "let rec" ] in
  let read path =
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      if i + nn > nh then false
      else if String.sub hay i nn = needle then true
      else go (i + 1)
    in
    go 0
  in
  List.iter
    (fun path ->
      let text = read path in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "%s free of %S" path needle)
            false (contains text needle))
        forbidden)
    [ "../lib/twolevel/cube.ml"; "../lib/core/net_cube.ml" ]

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_complement;
      prop_minimize_preserves;
      prop_factor_preserves;
      prop_memo_complement;
      prop_memo_factor_count;
      prop_algebraic_identity;
      prop_tautology_matches_eval;
      prop_containment_matches_eval;
      prop_sos_lemma1;
      prop_kernels_divide;
      prop_reduce_preserves;
    ]

let () =
  Alcotest.run "twolevel"
    [
      ( "literal-cube",
        [
          Alcotest.test_case "literal encoding" `Quick test_literal_encoding;
          Alcotest.test_case "cube normalisation" `Quick test_cube_normalise;
          Alcotest.test_case "cube containment" `Quick test_cube_containment;
          Alcotest.test_case "cube operations" `Quick test_cube_ops;
          Alcotest.test_case "cube cofactor" `Quick test_cube_cofactor;
        ] );
      ( "cover",
        [
          Alcotest.test_case "basics" `Quick test_cover_basics;
          Alcotest.test_case "containment" `Quick test_cover_containment;
          Alcotest.test_case "equivalence" `Quick test_cover_equivalence;
          Alcotest.test_case "product" `Quick test_cover_product;
          Alcotest.test_case "sos and lemma 1" `Quick test_cover_sos;
          Alcotest.test_case "tautology" `Quick test_tautology;
          Alcotest.test_case "single cube containment" `Quick test_scc;
          Alcotest.test_case "minterm count" `Quick test_minterm_count;
        ] );
      ( "complement-minimize",
        [
          Alcotest.test_case "complement" `Quick test_complement;
          Alcotest.test_case "simplify" `Quick test_minimize;
          Alcotest.test_case "irredundant" `Quick test_minimize_irredundant;
        ] );
      ( "algebraic",
        [
          Alcotest.test_case "weak division" `Quick test_algebraic_divide;
          Alcotest.test_case "algebraic weakness" `Quick test_algebraic_weakness;
          Alcotest.test_case "kernels" `Quick test_kernels;
          Alcotest.test_case "make cube free" `Quick test_make_cube_free;
          Alcotest.test_case "factoring" `Quick test_factor;
          Alcotest.test_case "factored evaluation" `Quick test_factor_eval;
        ] );
      ( "reduce",
        [ Alcotest.test_case "reduce" `Quick test_reduce ] );
      ( "parse",
        [
          Alcotest.test_case "parser" `Quick test_parse;
          Alcotest.test_case "operators" `Quick test_parse_spaces_and_ops;
        ] );
      ( "differential",
        [
          Alcotest.test_case "normalise vs oracle" `Quick test_diff_normalise;
          Alcotest.test_case "containment vs oracle" `Quick
            test_diff_containment;
          Alcotest.test_case "intersect vs oracle" `Quick test_diff_intersect;
          Alcotest.test_case "distance vs oracle" `Quick test_diff_distance;
          Alcotest.test_case "compare order preserved" `Quick
            test_diff_compare;
          Alcotest.test_case "tautology vs oracle" `Quick test_diff_tautology;
          Alcotest.test_case "complement vs oracle" `Quick
            test_diff_complement;
          Alcotest.test_case "kernels vs oracle" `Quick test_diff_kernels;
          Alcotest.test_case "sparse containment vs oracle" `Quick
            test_diff_sparse_containment;
          Alcotest.test_case "reduce and simplify vs oracle" `Quick
            test_diff_minimize;
          Alcotest.test_case "complement of 8 variables fits 256" `Quick
            test_complement_bound;
          Alcotest.test_case "single table space vs per query" `Quick
            test_diff_single_space;
        ] );
      ( "gates",
        [
          Alcotest.test_case "no list cube logic in views" `Quick
            test_no_list_cube_logic;
        ] );
      ("properties", qcheck_cases);
    ]
