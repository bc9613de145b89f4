open Twolevel
module Network = Logic_network.Network
module Builder = Logic_network.Builder

(* ISCAS-85 C17, NAND gates expressed as SOP nodes (x·y)' = x' + y'. *)
let c17 () =
  Builder.of_spec
    ~inputs:[ "g1"; "g2"; "g3"; "g6"; "g7" ]
    ~nodes:
      [
        ("g10", "g1' + g3'");
        ("g11", "g3' + g6'");
        ("g16", "g2' + g11'");
        ("g19", "g11' + g7'");
        ("g22", "g10' + g16'");
        ("g23", "g16' + g19'");
      ]
    ~outputs:[ "g22"; "g23" ]

let full_adder () =
  Builder.of_spec
    ~inputs:[ "a"; "b"; "c" ]
    ~nodes:
      [
        ("s", "ab'c' + a'bc' + a'b'c + abc");
        ("co", "ab + ac + bc");
      ]
    ~outputs:[ "s"; "co" ]

(* Programmatic constructions use the Network API directly so widths are
   parametric. *)

let cover_of cubes = Cover.of_cubes (List.map Cube.of_literals_exn cubes)

let ripple_adder n =
  assert (n >= 1);
  let net = Network.create () in
  let a = Array.init n (fun i -> Network.add_input net (Printf.sprintf "a%d" i)) in
  let b = Array.init n (fun i -> Network.add_input net (Printf.sprintf "b%d" i)) in
  let cin = Network.add_input net "cin" in
  let carry = ref cin in
  for i = 0 to n - 1 do
    (* sum_i = a ⊕ b ⊕ c ; carry = ab + ac + bc over fanins [a;b;c]. *)
    let fanins = [| a.(i); b.(i); !carry |] in
    let va p = Literal.make 0 p and vb p = Literal.make 1 p and vc p = Literal.make 2 p in
    let sum =
      Network.add_logic net ~name:(Printf.sprintf "s%d" i) ~fanins
        (cover_of
           [
             [ va true; vb false; vc false ];
             [ va false; vb true; vc false ];
             [ va false; vb false; vc true ];
             [ va true; vb true; vc true ];
           ])
    in
    Network.add_output net (Printf.sprintf "sum%d" i) sum;
    let cout =
      Network.add_logic net ~name:(Printf.sprintf "c%d" i) ~fanins
        (cover_of
           [
             [ va true; vb true ];
             [ va true; vc true ];
             [ vb true; vc true ];
           ])
    in
    carry := cout
  done;
  Network.add_output net "cout" !carry;
  Network.check net;
  net

let mux k =
  assert (k >= 1 && k <= 4);
  let n = 1 lsl k in
  let net = Network.create () in
  let sel = Array.init k (fun i -> Network.add_input net (Printf.sprintf "s%d" i)) in
  let data = Array.init n (fun i -> Network.add_input net (Printf.sprintf "d%d" i)) in
  let fanins = Array.append sel data in
  let cubes =
    List.init n (fun i ->
        let select =
          List.init k (fun j -> Literal.make j (i land (1 lsl j) <> 0))
        in
        Literal.pos (k + i) :: select)
  in
  let out = Network.add_logic net ~name:"mux" ~fanins (cover_of cubes) in
  Network.add_output net "out" out;
  Network.check net;
  net

let decoder k =
  assert (k >= 1 && k <= 4);
  let net = Network.create () in
  let sel = Array.init k (fun i -> Network.add_input net (Printf.sprintf "s%d" i)) in
  for i = 0 to (1 lsl k) - 1 do
    let cube = List.init k (fun j -> Literal.make j (i land (1 lsl j) <> 0)) in
    let node =
      Network.add_logic net ~name:(Printf.sprintf "y%d" i) ~fanins:sel
        (cover_of [ cube ])
    in
    Network.add_output net (Printf.sprintf "y%d" i) node
  done;
  Network.check net;
  net

let majority n =
  assert (n >= 3 && n mod 2 = 1 && n <= 9);
  let net = Network.create () in
  let inputs = Array.init n (fun i -> Network.add_input net (Printf.sprintf "x%d" i)) in
  let threshold = (n / 2) + 1 in
  (* All cubes with exactly [threshold] positive literals. *)
  let rec choose start count acc cubes =
    if count = 0 then List.rev acc :: cubes
    else if start >= n then cubes
    else
      let with_start = choose (start + 1) (count - 1) (Literal.pos start :: acc) cubes in
      choose (start + 1) count acc with_start
  in
  let cubes = choose 0 threshold [] [] in
  let node = Network.add_logic net ~name:"maj" ~fanins:inputs (cover_of cubes) in
  Network.add_output net "maj" node;
  Network.check net;
  net

let parity n =
  assert (n >= 2);
  let net = Network.create () in
  let inputs = List.init n (fun i -> Network.add_input net (Printf.sprintf "x%d" i)) in
  let xor2 x y =
    Network.add_logic net ~fanins:[| x; y |]
      (cover_of
         [
           [ Literal.pos 0; Literal.neg 1 ];
           [ Literal.neg 0; Literal.pos 1 ];
         ])
  in
  let rec tree = function
    | [] -> assert false
    | [ x ] -> x
    | x :: y :: rest -> tree (rest @ [ xor2 x y ])
  in
  let out = tree inputs in
  Network.add_output net "parity" out;
  Network.check net;
  net

let comparator n =
  assert (n >= 1 && n <= 4);
  let net = Network.create () in
  let a = Array.init n (fun i -> Network.add_input net (Printf.sprintf "a%d" i)) in
  let b = Array.init n (fun i -> Network.add_input net (Printf.sprintf "b%d" i)) in
  (* Per-bit equality, then prefix combination from the MSB down. *)
  let eq = Array.make n 0 and gt = Array.make n 0 and lt = Array.make n 0 in
  for i = 0 to n - 1 do
    let fanins = [| a.(i); b.(i) |] in
    eq.(i) <-
      Network.add_logic net ~name:(Printf.sprintf "eq%d" i) ~fanins
        (cover_of
           [
             [ Literal.pos 0; Literal.pos 1 ];
             [ Literal.neg 0; Literal.neg 1 ];
           ]);
    gt.(i) <-
      Network.add_logic net ~name:(Printf.sprintf "gtb%d" i) ~fanins
        (cover_of [ [ Literal.pos 0; Literal.neg 1 ] ]);
    lt.(i) <-
      Network.add_logic net ~name:(Printf.sprintf "ltb%d" i) ~fanins
        (cover_of [ [ Literal.neg 0; Literal.pos 1 ] ])
  done;
  (* gt = gt_{n-1} + eq_{n-1}·gt_{n-2} + ... *)
  let combine kind per_bit =
    let rec go i prefix_eq acc =
      if i < 0 then acc
      else begin
        let term = per_bit.(i) :: prefix_eq in
        go (i - 1) (eq.(i) :: prefix_eq) (term :: acc)
      end
    in
    let terms = go (n - 1) [] [] in
    let node =
      Logic_network.Lift.add net ~name:kind
        (cover_of (List.map (List.map Literal.pos) terms))
    in
    Network.add_output net kind node;
    node
  in
  ignore (combine "gt" gt);
  ignore (combine "lt" lt);
  (* eq = conjunction of all per-bit equalities. *)
  let eq_all =
    Network.add_logic net ~name:"eq" ~fanins:eq
      (cover_of [ List.init n (fun i -> Literal.pos i) ])
  in
  Network.add_output net "eq" eq_all;
  Network.check net;
  net

let alu_slice () =
  Builder.of_spec
    ~inputs:[ "a"; "b"; "c"; "s"; "t" ]
    ~nodes:
      [
        (* s t select: 00 and, 01 or, 10 xor, 11 add *)
        ("f0", "ab");
        ("f1", "a + b");
        ("f2", "ab' + a'b");
        ("f3", "ab'c' + a'bc' + a'b'c + abc");
        ("co", "st ab + st ac + st bc");
        ("out", "s't' f0 + s't f1 + s t' f2 + s t f3");
      ]
    ~outputs:[ "out"; "co" ]

(* A node from a truth table: collect minterms over [n] input variables
   and minimise. *)
let node_of_truth net ~name ~inputs f =
  let n = Array.length inputs in
  let minterms = ref [] in
  for bits = 0 to (1 lsl n) - 1 do
    if f bits then begin
      let lits = List.init n (fun i -> Literal.make i (bits land (1 lsl i) <> 0)) in
      minterms := Cube.of_literals_exn lits :: !minterms
    end
  done;
  let cover = Minimize.simplify (Cover.of_cubes !minterms) in
  Network.add_logic net ~name ~fanins:inputs cover

let multiplier n =
  assert (n >= 1 && n <= 3);
  let net = Network.create () in
  let a = Array.init n (fun i -> Network.add_input net (Printf.sprintf "a%d" i)) in
  let b = Array.init n (fun i -> Network.add_input net (Printf.sprintf "b%d" i)) in
  let inputs = Array.append a b in
  for bit = 0 to (2 * n) - 1 do
    let f bits =
      let av = bits land ((1 lsl n) - 1) in
      let bv = (bits lsr n) land ((1 lsl n) - 1) in
      av * bv land (1 lsl bit) <> 0
    in
    let node = node_of_truth net ~name:(Printf.sprintf "p%d" bit) ~inputs f in
    Network.add_output net (Printf.sprintf "p%d" bit) node
  done;
  Network.check net;
  net

let bcd_to_7seg () =
  let net = Network.create () in
  let inputs =
    Array.init 4 (fun i -> Network.add_input net (Printf.sprintf "d%d" i))
  in
  (* Segment patterns for digits 0-9 (a..g); inputs 10-15 show blank. *)
  let patterns =
    [|
      "1111110" (* 0 *); "0110000" (* 1 *); "1101101" (* 2 *);
      "1111001" (* 3 *); "0110011" (* 4 *); "1011011" (* 5 *);
      "1011111" (* 6 *); "1110000" (* 7 *); "1111111" (* 8 *);
      "1111011" (* 9 *);
    |]
  in
  String.iteri
    (fun seg_index seg_name ->
      let f digit =
        digit < 10 && patterns.(digit).[seg_index] = '1'
      in
      let node =
        node_of_truth net
          ~name:(Printf.sprintf "seg_%c" seg_name)
          ~inputs f
      in
      Network.add_output net (Printf.sprintf "seg_%c" seg_name) node)
    "abcdefg";
  Network.check net;
  net

let priority_encoder n =
  assert (n >= 2 && n <= 8);
  let net = Network.create () in
  let inputs =
    Array.init n (fun i -> Network.add_input net (Printf.sprintf "r%d" i))
  in
  let highest bits =
    let rec go i = if i < 0 then None else if bits land (1 lsl i) <> 0 then Some i else go (i - 1) in
    go (n - 1)
  in
  let out_bits =
    let rec bits_needed k = if 1 lsl k >= n then k else bits_needed (k + 1) in
    max 1 (bits_needed 0)
  in
  for bit = 0 to out_bits - 1 do
    let f bits =
      match highest bits with
      | Some i -> i land (1 lsl bit) <> 0
      | None -> false
    in
    let node = node_of_truth net ~name:(Printf.sprintf "y%d" bit) ~inputs f in
    Network.add_output net (Printf.sprintf "y%d" bit) node
  done;
  let valid = node_of_truth net ~name:"valid" ~inputs (fun bits -> bits <> 0) in
  Network.add_output net "valid" valid;
  Network.check net;
  net

let all =
  [
    ("c17", c17);
    ("full_adder", full_adder);
    ("adder4", fun () -> ripple_adder 4);
    ("mux8", fun () -> mux 3);
    ("decoder3", fun () -> decoder 3);
    ("majority5", fun () -> majority 5);
    ("parity8", fun () -> parity 8);
    ("comparator2", fun () -> comparator 2);
    ("alu_slice", alu_slice);
    ("mult2", fun () -> multiplier 2);
    ("bcd7seg", bcd_to_7seg);
    ("priority8", fun () -> priority_encoder 8);
  ]
