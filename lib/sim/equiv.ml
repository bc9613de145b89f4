module Network = Logic_network.Network
module Dont_care = Logic_network.Dont_care

type result =
  | Equivalent
  | Counterexample of { output : string; assignment : (string * bool) list }

let sorted_names names = List.sort String.compare names

let input_names net = sorted_names (List.map (Network.name net) (Network.inputs net))

let output_names net = sorted_names (List.map fst (Network.outputs net))

let require_same_interface net1 net2 =
  if input_names net1 <> input_names net2 then
    invalid_arg "Equiv: input name sets differ";
  if output_names net1 <> output_names net2 then
    invalid_arg "Equiv: output name sets differ"

let bit_at v w bit = Int64.logand (Int64.shift_right_logical v.(w) bit) 1L = 1L

(* Compare all outputs under shared input patterns; patterns are assigned
   to inputs of net2 by name so both networks see the same stimulus.

   With a DC view, rows outside the care set are masked away before
   mismatches are looked for (EXCDC patterns never occur, so differing
   on them is fine), and a surviving mismatch row is excused when the
   two full output patterns fall in the same EXOEC class. *)
let compare_under ?(dc = Dont_care.empty) net1 net2 ~words ~inputs1 =
  let values_by_name = Hashtbl.create 16 in
  List.iter
    (fun id -> Hashtbl.replace values_by_name (Network.name net1 id) (inputs1 id))
    (Network.inputs net1);
  let inputs2 id = Hashtbl.find values_by_name (Network.name net2 id) in
  let v1 = Simulate.run net1 ~words ~input_values:inputs1 in
  let v2 = Simulate.run net2 ~words ~input_values:inputs2 in
  let out_pairs =
    List.map
      (fun (po_name, id1) ->
        let id2 =
          match
            List.find_opt (fun (n, _) -> n = po_name) (Network.outputs net2)
          with
          | Some (_, id) -> id
          | None -> invalid_arg "Equiv: output missing"
        in
        (po_name, Hashtbl.find v1 id1, Hashtbl.find v2 id2))
      (Network.outputs net1)
  in
  (* Rows where any output differs, restricted to the care set. *)
  let diff_any = Array.make words 0L in
  List.iter
    (fun (_, a, b) ->
      for w = 0 to words - 1 do
        diff_any.(w) <- Int64.logor diff_any.(w) (Int64.logxor a.(w) b.(w))
      done)
    out_pairs;
  Option.iter
    (fun care ->
      for w = 0 to words - 1 do
        diff_any.(w) <- Int64.logand diff_any.(w) care.(w)
      done)
    (Dont_care.care_mask dc ~words ~stimulus:(fun name ->
         Option.map inputs1 (Network.find_input net1 name)));
  let has_exoec = Dont_care.exoec dc <> [] in
  let excused w bit =
    has_exoec
    &&
    let pat1 = List.map (fun (n, a, _) -> (n, bit_at a w bit)) out_pairs in
    let pat2 = List.map (fun (n, _, b) -> (n, bit_at b w bit)) out_pairs in
    Dont_care.same_output_class dc pat1 pat2
  in
  let counterexample w bit =
    let output =
      match
        List.find_opt (fun (_, a, b) -> bit_at a w bit <> bit_at b w bit)
          out_pairs
      with
      | Some (n, _, _) -> n
      | None -> assert false
    in
    let assignment =
      List.map
        (fun id -> (Network.name net1 id, bit_at (inputs1 id) w bit))
        (Network.inputs net1)
    in
    Counterexample { output; assignment }
  in
  let result = ref Equivalent in
  (try
     for w = 0 to words - 1 do
       let d = ref diff_any.(w) in
       while !d <> 0L do
         let low = Int64.logand !d (Int64.neg !d) in
         let bit =
           let rec first b =
             if Int64.shift_right_logical low b = 1L then b else first (b + 1)
           in
           first 0
         in
         d := Int64.logand !d (Int64.lognot low);
         if not (excused w bit) then begin
           result := counterexample w bit;
           raise Exit
         end
       done
     done
   with Exit -> ());
  !result

let exhaustive ?dc net1 net2 =
  require_same_interface net1 net2;
  let n = List.length (Network.inputs net1) in
  if n > 22 then invalid_arg "Equiv.exhaustive: too many inputs";
  let words = Simulate.exhaustive_words n in
  compare_under ?dc net1 net2 ~words ~inputs1:(Simulate.exhaustive_inputs net1)

let random ?(seed = 0x5eed) ?(words = 64) ?dc net1 net2 =
  require_same_interface net1 net2;
  let rng = Rar_util.Rng.create seed in
  compare_under ?dc net1 net2 ~words
    ~inputs1:(Simulate.random_inputs rng ~words)

let exhaustive_cut = 14

let check_words = 256

let check ?dc net1 net2 =
  if List.length (Network.inputs net1) <= exhaustive_cut then
    exhaustive ?dc net1 net2
  else random ~words:check_words ?dc net1 net2

let equivalent net1 net2 = check net1 net2 = Equivalent
