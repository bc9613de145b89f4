type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* splitmix64: fast, well-distributed, trivially seedable. *)
let int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let int t bound =
  assert (bound > 0);
  let raw = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  raw mod bound

let bool t = Int64.logand (int64 t) 1L = 1L

let pick t xs =
  match xs with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth xs (int t (List.length xs))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
