open Twolevel
module Network = Logic_network.Network

type valuation = (Network.node_id, int64 array) Hashtbl.t

(* Bit-parallel evaluation of one SOP cover. Each cube's packed kernel is
   decoded to a flat code array once, outside the word loop; the code's
   variable ([code lsr 1]) indexes the fanin rows and its low bit selects
   the phase. *)
let eval_cover ~words cover ~fanin_values =
  let out = Array.make words 0L in
  List.iter
    (fun cube ->
      let codes = Cube_kernel.codes_array (Cube.kernel cube) in
      for w = 0 to words - 1 do
        let acc = ref Int64.minus_one in
        Array.iter
          (fun code ->
            let fv = fanin_values.(code lsr 1).(w) in
            let fv = if code land 1 = 0 then fv else Int64.lognot fv in
            acc := Int64.logand !acc fv)
          codes;
        out.(w) <- Int64.logor out.(w) !acc
      done)
    (Cover.cubes cover);
  out

let run net ~words ~input_values =
  let values : valuation = Hashtbl.create 64 in
  List.iter
    (fun id ->
      let value =
        if Network.is_input net id then begin
          let v = input_values id in
          assert (Array.length v = words);
          v
        end
        else begin
          let fanins = Network.fanins net id in
          let fanin_values = Array.map (Hashtbl.find values) fanins in
          eval_cover ~words (Network.cover net id) ~fanin_values
        end
      in
      Hashtbl.replace values id value)
    (Network.topological net);
  values

let random_inputs rng ~words =
  let memo = Hashtbl.create 16 in
  fun id ->
    match Hashtbl.find_opt memo id with
    | Some v -> v
    | None ->
      let v = Array.init words (fun _ -> Rar_util.Rng.int64 rng) in
      Hashtbl.add memo id v;
      v

let exhaustive_words n =
  if n > 26 then invalid_arg "Simulate.exhaustive_words: too many inputs";
  if n <= 6 then 1 else 1 lsl (n - 6)

let exhaustive_inputs net =
  let order = Network.inputs net in
  let n = List.length order in
  let words = exhaustive_words n in
  let index_of = Hashtbl.create 16 in
  List.iteri (fun i id -> Hashtbl.replace index_of id i) order;
  let memo = Hashtbl.create 16 in
  fun id ->
    match Hashtbl.find_opt memo id with
    | Some v -> v
    | None ->
      let index =
        match Hashtbl.find_opt index_of id with
        | Some i -> i
        | None -> invalid_arg "Simulate.exhaustive_inputs: not an input"
      in
      let v =
        Array.init words (fun w ->
            (* Bit b of word w corresponds to assignment number 64w + b;
               input [index] is bit [index] of that number. *)
            if index < 6 then begin
              (* Patterns repeat within a word. *)
              let block = 1 lsl index in
              let word = ref 0L in
              for b = 63 downto 0 do
                let bit = if b land block <> 0 then 1L else 0L in
                word := Int64.logor (Int64.shift_left !word 1) bit
              done;
              !word
            end
            else if w land (1 lsl (index - 6)) <> 0 then Int64.minus_one
            else 0L)
      in
      Hashtbl.add memo id v;
      v
