(* Packed positional-cube kernel. Codes are packed two bits per variable
   into trimmed little-endian int words; every operation below is an
   O(words) loop of bitwise instructions. See cube_kernel.mli for the
   representation contract (trimming, order-preserving compare). *)

let bits_per_word = 62

(* Even-bit (positive-phase) mask over the 62 usable bits: 0101...01. *)
let mask_even = 0x1555555555555555

let mask_odd = mask_even lsl 1

type t = {
  words : int array; (* trimmed: the last word, if any, is non-zero *)
  size : int;
  hash : int;
}

let top = { words = [||]; size = 0; hash = 0 }

let is_top t = Array.length t.words = 0

let size t = t.size

let hash t = t.hash

(* Codes are sparse in practice, so count set bits by clearing the lowest
   one per step rather than with a full SWAR reduction. *)
let popcount x =
  let x = ref x and n = ref 0 in
  while !x <> 0 do
    incr n;
    x := !x land (!x - 1)
  done;
  !n

(* Number of trailing zeros of a single-bit word. *)
let ntz b =
  let n = ref 0 and b = ref b in
  if !b land 0xFFFFFFFF = 0 then begin n := !n + 32; b := !b lsr 32 end;
  if !b land 0xFFFF = 0 then begin n := !n + 16; b := !b lsr 16 end;
  if !b land 0xFF = 0 then begin n := !n + 8; b := !b lsr 8 end;
  if !b land 0xF = 0 then begin n := !n + 4; b := !b lsr 4 end;
  if !b land 0x3 = 0 then begin n := !n + 2; b := !b lsr 2 end;
  if !b land 0x1 = 0 then incr n;
  !n

let mix h x =
  let h = (h lxor x) * 0x2545F4914F6CDD1D land max_int in
  h lxor (h lsr 29)

(* Take ownership of [words], trim trailing zeros, precompute size/hash. *)
let mk words =
  let n = ref (Array.length words) in
  while !n > 0 && words.(!n - 1) = 0 do decr n done;
  if !n = 0 then top
  else begin
    let words = if !n = Array.length words then words else Array.sub words 0 !n in
    let size = ref 0 and h = ref 0x1505 in
    for w = 0 to !n - 1 do
      size := !size + popcount words.(w);
      h := mix !h words.(w)
    done;
    { words; size = !size; hash = !h }
  end

let word t w = if w < Array.length t.words then t.words.(w) else 0

let conflicting w = w land (w lsr 1) land mask_even <> 0

let of_code_set codes =
  match codes with
  | [] -> top
  | _ ->
    let maxc =
      List.fold_left
        (fun acc c ->
          if c < 0 then invalid_arg "Cube_kernel.of_code_set: negative code";
          max acc c)
        0 codes
    in
    let words = Array.make ((maxc / bits_per_word) + 1) 0 in
    List.iter
      (fun c ->
        words.(c / bits_per_word) <-
          words.(c / bits_per_word) lor (1 lsl (c mod bits_per_word)))
      codes;
    mk words

let consistent t = not (Array.exists conflicting t.words)

let of_codes codes =
  let t = of_code_set codes in
  if consistent t then Some t else None

let mem_code c t =
  c >= 0
  && c / bits_per_word < Array.length t.words
  && t.words.(c / bits_per_word) land (1 lsl (c mod bits_per_word)) <> 0


let subset a b =
  a.size <= b.size
  && Array.length a.words <= Array.length b.words
  &&
  let ok = ref true in
  for w = 0 to Array.length a.words - 1 do
    if a.words.(w) land lnot b.words.(w) <> 0 then ok := false
  done;
  !ok

let merge a b =
  if is_top a then Some b
  else if is_top b then Some a
  else begin
    let n = max (Array.length a.words) (Array.length b.words) in
    let words = Array.make n 0 in
    let ok = ref true in
    for w = 0 to n - 1 do
      let u = word a w lor word b w in
      if conflicting u then ok := false;
      words.(w) <- u
    done;
    if !ok then Some (mk words) else None
  end

let inter a b =
  let n = min (Array.length a.words) (Array.length b.words) in
  mk (Array.init n (fun w -> a.words.(w) land b.words.(w)))

let diff a b =
  mk (Array.init (Array.length a.words) (fun w -> a.words.(w) land lnot (word b w)))

let distance a b =
  let n = min (Array.length a.words) (Array.length b.words) in
  let acc = ref 0 in
  for w = 0 to n - 1 do
    let x = a.words.(w) and y = b.words.(w) in
    let opposed =
      (x land (y lsr 1) land mask_even) lor (x land (y lsl 1) land mask_odd)
    in
    acc := !acc + popcount opposed
  done;
  !acc

let add_code c t =
  if c < 0 then invalid_arg "Cube_kernel.add_code: negative code"
  else if mem_code (c lxor 1) t then None
  else if mem_code c t then Some t
  else begin
    let n = max (Array.length t.words) ((c / bits_per_word) + 1) in
    let words = Array.init n (word t) in
    words.(c / bits_per_word) <-
      words.(c / bits_per_word) lor (1 lsl (c mod bits_per_word));
    Some (mk words)
  end

let clear_mask c t mask =
  let wi = c / bits_per_word in
  if c < 0 || wi >= Array.length t.words then t
  else begin
    let words = Array.copy t.words in
    words.(wi) <- words.(wi) land lnot mask;
    mk words
  end

let remove_code c t = clear_mask c t (1 lsl (c mod bits_per_word))

let remove_var v t =
  let c = 2 * v in
  clear_mask c t (0b11 lsl (c mod bits_per_word))

let fold_codes f acc t =
  let acc = ref acc in
  for w = 0 to Array.length t.words - 1 do
    let base = w * bits_per_word in
    let x = ref t.words.(w) in
    while !x <> 0 do
      let b = !x land - !x in
      acc := f !acc (base + ntz b);
      x := !x lxor b
    done
  done;
  !acc

let iter_codes f t = fold_codes (fun () c -> f c) () t

(* The mapped codes are staged in one array (so [f] runs once per code,
   in increasing code order), then written straight into the words. *)
let rename f t =
  if t.size = 0 then top
  else begin
    let mapped = Array.make t.size 0 in
    let i = ref 0 and maxc = ref 0 in
    iter_codes
      (fun c ->
        let v = f (c lsr 1) in
        if v < 0 then invalid_arg "Cube_kernel.rename: negative variable";
        let c' = (2 * v) lor (c land 1) in
        mapped.(!i) <- c';
        if c' > !maxc then maxc := c';
        incr i)
      t;
    let words = Array.make ((!maxc / bits_per_word) + 1) 0 in
    Array.iter
      (fun c ->
        let w = c / bits_per_word in
        words.(w) <- words.(w) lor (1 lsl (c mod bits_per_word)))
      mapped;
    mk words
  end

exception Found

let for_all_codes f t =
  match iter_codes (fun c -> if not (f c) then raise Found) t with
  | () -> true
  | exception Found -> false

let codes t = List.rev (fold_codes (fun acc c -> c :: acc) [] t)

let codes_array t =
  let out = Array.make t.size 0 in
  let i = ref 0 in
  iter_codes
    (fun c ->
      out.(!i) <- c;
      incr i)
    t;
  out

let equal a b =
  a.size = b.size && a.hash = b.hash
  && Array.length a.words = Array.length b.words
  &&
  let ok = ref true in
  for w = 0 to Array.length a.words - 1 do
    if a.words.(w) <> b.words.(w) then ok := false
  done;
  !ok

(* Lexicographic order on the increasing code sequences, computed from the
   first differing word: the lowest differing bit belongs to the cube whose
   next code is smaller; if the other cube has no code at or above that
   bit, it is a proper prefix and sorts first. *)
let compare a b =
  let la = Array.length a.words and lb = Array.length b.words in
  let n = min la lb in
  let rec go w =
    if w = n then Stdlib.compare la lb
    else begin
      let xa = a.words.(w) and xb = b.words.(w) in
      if xa = xb then go (w + 1)
      else begin
        let d = xa lxor xb in
        let bit = d land -d in
        let at_or_above = lnot (bit - 1) in
        if xa land bit <> 0 then
          if xb land at_or_above <> 0 || lb > w + 1 then -1 else 1
        else if xa land at_or_above <> 0 || la > w + 1 then 1
        else -1
      end
    end
  in
  go 0
