(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Section V) plus the illustrative figures of Sections II-IV,
   and registers one Bechamel timing benchmark per table.

   Usage:
     main.exe                 run everything (figures, tables, benches)
     main.exe table2 table5   run selected sections
     main.exe quick           tables on the small row subset only
     main.exe bench quick     write the BENCH_resub.json perf snapshot
     main.exe shardcheck quick empty-view identity + pinned totals
     main.exe tracecheck quick degraded-run + trace JSON-lines gate
     main.exe dccheck         DC-rich fixture determinism + floors gate
     main.exe kcheck quick    constructive k-resub BDD-verify + floor gate
     main.exe cubeops         packed-kernel vs list-cube microbenchmark
     main.exe servicecheck quick  daemon miss/hit + byte-identity gate
     main.exe service quick   daemon throughput snapshot (BENCH_service.json)
     main.exe aigcheck        AIGER round-trip + windowed-resub gate
     main.exe aig             >=10k-gate AIG snapshot (BENCH_aig.json)
   Sections: fig1 fig2 table1 fig4 table2 table3 table4 table5 ablation
   bech bench shardcheck tracecheck dccheck kcheck
   cubeops servicecheck service aigcheck aig
   The bench snapshot fails on a >20%% CPU regression against the
   previous file.
   Options (key=value): sim-seed=N (signature-filter seed), sim-words=N
   (signature vector size in 64-bit words, recorded in the snapshot),
   clients=N (service bench concurrency, default 8). *)

open Twolevel
module Network = Logic_network.Network
module Builder = Logic_network.Builder
module Lit_count = Logic_network.Lit_count
module Equiv = Logic_sim.Equiv
module Aig = Logic_network.Aig
module Aiger = Logic_network.Aiger
module Suite = Bench_suite.Suite
module Table = Rar_util.Text_table

let section title =
  let bar = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n" bar title bar

let subsection title = Printf.printf "\n--- %s ---\n" title

(* ------------------------------------------------------------------ *)
(* The four resubstitution methods compared by Tables II-V.            *)
(* ------------------------------------------------------------------ *)

let methods =
  [
    ("sis", Synth.Script.resub_command Algebraic);
    ("basic", Synth.Script.resub_command Basic);
    ("ext.", Synth.Script.resub_command Ext);
    ("ext. GDC", Synth.Script.resub_command Ext_gdc);
  ]

type cell = { lits : int; cpu : float; ok : bool }

let run_cell ~reference net command =
  let scratch = Network.copy net in
  let (), cpu = Rar_util.Stopwatch.time (fun () -> command scratch) in
  {
    lits = Lit_count.factored scratch;
    cpu;
    ok = Equiv.equivalent scratch reference;
  }

(* One of Tables II/III/IV: a starting script, then each method from the
   same starting point. *)
let comparison_table ~title ~script rows =
  section title;
  let columns =
    (("circuit", Table.Left) :: ("init.", Table.Right)
    :: List.concat_map
         (fun (name, _) -> [ (name, Table.Right); ("cpu", Table.Right) ])
         methods)
    @ [ ("verified", Table.Left) ]
  in
  let table = Table.create columns in
  let totals = Array.make (1 + List.length methods) 0 in
  let all_ok = ref true in
  List.iter
    (fun row ->
      let net = Suite.build row in
      Synth.Script.run net script;
      let init = Lit_count.factored net in
      let cells =
        List.map (fun (_, cmd) -> run_cell ~reference:net net cmd) methods
      in
      totals.(0) <- totals.(0) + init;
      List.iteri (fun i c -> totals.(i + 1) <- totals.(i + 1) + c.lits) cells;
      let ok = List.for_all (fun c -> c.ok) cells in
      if not ok then all_ok := false;
      Table.add_row table
        ((row.Suite.name :: string_of_int init
         :: List.concat_map
              (fun c ->
                [ string_of_int c.lits; Rar_util.Stopwatch.seconds_to_string c.cpu ])
              cells)
        @ [ (if ok then "yes" else "NO") ]))
    rows;
  Table.add_separator table;
  Table.add_row table
    (("total" :: string_of_int totals.(0)
     :: List.concat_map
          (fun i -> [ string_of_int totals.(i + 1); "" ])
          (List.init (List.length methods) Fun.id))
    @ [ "" ]);
  let percent i =
    Printf.sprintf "%.1f%%"
      (100.0
      *. float_of_int (totals.(0) - totals.(i + 1))
      /. float_of_int (max totals.(0) 1))
  in
  Table.add_row table
    (("improvement" :: ""
     :: List.concat_map
          (fun i -> [ percent i; "" ])
          (List.init (List.length methods) Fun.id))
    @ [ "" ]);
  print_string (Table.render table);
  Printf.printf
    "(all cells equivalence-checked against the starting network: %s)\n"
    (if !all_ok then "pass" else "FAILURES PRESENT");
  Printf.printf
    "Expected shape (paper): every configuration beats sis; ext. GDC best;\n\
     basic/ext CPU comparable to sis, ext. GDC slower.\n"

(* Table V: script.algebraic with each method replacing the resub steps. *)
let table_v rows =
  section "Table V - script.algebraic with resub replaced by each algorithm";
  let columns =
    (("circuit", Table.Left) :: ("init.", Table.Right)
    :: List.concat_map
         (fun (name, _) -> [ (name, Table.Right); ("cpu", Table.Right) ])
         methods)
    @ [ ("verified", Table.Left) ]
  in
  let table = Table.create columns in
  let totals = Array.make (1 + List.length methods) 0 in
  let all_ok = ref true in
  List.iter
    (fun row ->
      let original = Suite.build row in
      (* The "init." column is the script run with resub disabled. *)
      let base = Network.copy original in
      Synth.Script.run base Synth.Script.script_algebraic;
      let init = Lit_count.factored base in
      let cells =
        List.map
          (fun (_, resub) ->
            let scratch = Network.copy original in
            let (), cpu =
              Rar_util.Stopwatch.time (fun () ->
                  Synth.Script.run ~resub scratch Synth.Script.script_algebraic)
            in
            {
              lits = Lit_count.factored scratch;
              cpu;
              ok = Equiv.equivalent scratch original;
            })
          methods
      in
      totals.(0) <- totals.(0) + init;
      List.iteri (fun i c -> totals.(i + 1) <- totals.(i + 1) + c.lits) cells;
      let ok = List.for_all (fun c -> c.ok) cells in
      if not ok then all_ok := false;
      Table.add_row table
        ((row.Suite.name :: string_of_int init
         :: List.concat_map
              (fun c ->
                [ string_of_int c.lits; Rar_util.Stopwatch.seconds_to_string c.cpu ])
              cells)
        @ [ (if ok then "yes" else "NO") ]))
    rows;
  Table.add_separator table;
  Table.add_row table
    (("total" :: string_of_int totals.(0)
     :: List.concat_map
          (fun i -> [ string_of_int totals.(i + 1); "" ])
          (List.init (List.length methods) Fun.id))
    @ [ "" ]);
  print_string (Table.render table);
  Printf.printf
    "(all cells equivalence-checked against the original network: %s)\n"
    (if !all_ok then "pass" else "FAILURES PRESENT");
  Printf.printf
    "Paper's observed anomaly: inside script.algebraic, ext. GDC may\n\
     slightly underperform ext. because of the locally greedy\n\
     first-positive-gain policy.\n"

(* ------------------------------------------------------------------ *)
(* Fig. 1 - classic redundancy addition and removal                    *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "Fig. 1 - redundancy addition and removal (Section II review)";
  let net =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("x", "ab"); ("y", "ax + c") ]
      ~outputs:[ "y"; "x" ]
  in
  Printf.printf "Irredundant circuit:\n%s" (Network.to_string net);
  Printf.printf "literals (factored): %d\n" (Lit_count.factored net);
  let y = Builder.node net "y" and b = Builder.node net "b" in
  subsection "adding the dotted wire b -> cube (a x) of y";
  let added =
    Rewiring.Rar.try_add_wire net ~node:y ~cube:0 ~source:b ~phase:true
  in
  Printf.printf "addition accepted (added wire proven redundant): %b\n" added;
  Printf.printf "%s" (Network.to_string net);
  subsection "removing the wires the addition made redundant";
  let removed = Rewiring.Remove.run net in
  Printf.printf "wires removed: %d\n%s" removed (Network.to_string net);
  Printf.printf "literals (factored): %d\n" (Lit_count.factored net);
  let reference =
    Builder.of_spec ~inputs:[ "a"; "b"; "c" ]
      ~nodes:[ ("x", "ab"); ("y", "ax + c") ]
      ~outputs:[ "y"; "x" ]
  in
  Printf.printf "equivalent to the original: %b\n"
    (Equiv.equivalent net reference)

(* ------------------------------------------------------------------ *)
(* Fig. 2 - basic division walk-through                                *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "Fig. 2 - basic Boolean division, step by step (Section III)";
  let net =
    Builder.of_spec
      ~inputs:[ "a"; "b"; "c"; "d" ]
      ~nodes:[ ("D", "a + b"); ("f", "ad + bd + a'b'c") ]
      ~outputs:[ "f"; "D" ]
  in
  let f = Builder.node net "f" and d = Builder.node net "D" in
  Printf.printf "(a) two nodes, f to be divided by D:\n%s" (Network.to_string net);
  Printf.printf "f factored literals: %d\n" (Lit_count.node_factored net f);
  subsection "(b) remainder split by the SOS test";
  List.iteri
    (fun i _ ->
      let lifted = Booldiv.Net_cube.of_cube_index net f i in
      let inside =
        List.exists
          (fun j ->
            Booldiv.Net_cube.contained_by lifted
              (Booldiv.Net_cube.of_cube_index net d j))
          (List.init (Cover.cube_count (Network.cover net d)) Fun.id)
      in
      Printf.printf "  cube %s: %s\n"
        (Booldiv.Net_cube.to_string net lifted)
        (if inside then "contained in a cube of D -> region f1"
         else "not contained -> remainder r"))
    (Cover.cubes (Network.cover net f));
  subsection "(c) add the bold AND (redundant a priori by Lemma 1)";
  Printf.printf
    "f is restructured as (f1 . D) + r; no redundancy test is needed for\n\
     the addition - this is the efficiency claim over classic RAR.\n";
  subsection "(d)+(e) implication-based removal inside the f1 region";
  (match Booldiv.Basic_division.divide net ~f ~d with
  | None -> Printf.printf "division not applicable\n"
  | Some outcome ->
    Printf.printf "wires removed by implications: %d\n" outcome.wires_removed;
    Printf.printf "After folding the quotient back (f = q.D + r):\n%s"
      (Network.to_string net);
    Printf.printf "f factored literals: %d\n" (Lit_count.node_factored net f));
  subsection "second pass: dividing by the complement D'";
  (match Booldiv.Basic_division.divide ~phase:false net ~f ~d with
  | None -> Printf.printf "complement division not applicable\n"
  | Some _ ->
    Printf.printf "%s" (Network.to_string net);
    Printf.printf
      "f factored literals: %d (the paper's 6 -> 5 -> 4 progression)\n"
      (Lit_count.node_factored net f));
  let reference =
    Builder.of_spec
      ~inputs:[ "a"; "b"; "c"; "d" ]
      ~nodes:[ ("D", "a + b"); ("f", "ad + bd + a'b'c") ]
      ~outputs:[ "f"; "D" ]
  in
  Printf.printf "equivalent to the original: %b\n"
    (Equiv.equivalent net reference)

(* ------------------------------------------------------------------ *)
(* Fig. 3 / Table I / Fig. 4 - extended division                       *)
(* ------------------------------------------------------------------ *)

let extended_example () =
  Builder.of_spec
    ~inputs:[ "a"; "b"; "c"; "x"; "y" ]
    ~nodes:[ ("D", "ab + a'b' + c"); ("f", "abx + a'b'x + aby + a'b'y") ]
    ~outputs:[ "f"; "D" ]

let table1_and_fig4 () =
  section "Fig. 3 + Table I - votes for candidate core divisors (Section IV)";
  let net = extended_example () in
  let f = Builder.node net "f" and d = Builder.node net "D" in
  Printf.printf "%s" (Network.to_string net);
  Printf.printf
    "\nEach literal wire of f runs its fault implications with no divisor\n\
     constraint; divisor cubes implied to 0 are the wire's vote.\n\n";
  let entries = Booldiv.Vote.collect net ~f ~pool:[ d ] in
  subsection "Table I(a) - raw vote table";
  print_string (Booldiv.Vote.table_to_string net entries);
  let valid = Booldiv.Vote.valid_entries entries in
  subsection "Table I(b) - after the SOS validity filter";
  print_string (Booldiv.Vote.table_to_string net valid);
  section "Fig. 4 - intersection graph of the candidate core divisors";
  let arr = Array.of_list valid in
  let candidates = Array.map (fun e -> e.Booldiv.Vote.candidates) arr in
  Array.iteri
    (fun i e ->
      Printf.printf "  v%d: %s\n" i
        (Atpg.Fault.wire_to_string net e.Booldiv.Vote.wire))
    arr;
  Printf.printf "edges (votes intersect):\n ";
  for i = 0 to Array.length arr - 1 do
    for j = i + 1 to Array.length arr - 1 do
      let inter =
        List.filter (fun c -> List.mem c candidates.(j)) candidates.(i)
      in
      if inter <> [] then Printf.printf " v%d-v%d" i j
    done
  done;
  print_newline ();
  let serves v core =
    List.exists
      (fun (m, j) ->
        Booldiv.Net_cube.contained_by arr.(v).Booldiv.Vote.wire_cube
          (Booldiv.Net_cube.of_cube_index net m j))
      core
  in
  (match Booldiv.Clique.best_core ~candidates ~serves with
  | None -> Printf.printf "no usable clique\n"
  | Some { members; core } ->
    Printf.printf "maximal clique: {%s}  ->  core divisor: %s\n"
      (String.concat ", " (List.map (Printf.sprintf "v%d") members))
      (String.concat " + "
         (List.map (Booldiv.Vote.pool_cube_to_string net) core)));
  subsection "performing the extended division";
  let before = Lit_count.factored net in
  (match Booldiv.Extended_division.try_run net ~f ~pool:[ d ] with
  | None -> Printf.printf "no profitable extended division\n"
  | Some outcome ->
    Printf.printf
      "core cubes: %d (from %d node(s)), divisor decomposed: %b,\n\
       wires expected removed: %d, literal gain: %d\n"
      outcome.core_cubes outcome.core_sources outcome.decomposed_divisor
      outcome.expected_removals outcome.literal_gain;
    Printf.printf "%s" (Network.to_string net);
    Printf.printf "total factored literals: %d -> %d\n" before
      (Lit_count.factored net));
  Printf.printf "equivalent to the original: %b\n"
    (Equiv.equivalent net (extended_example ()))

(* ------------------------------------------------------------------ *)
(* Ablations - the design choices DESIGN.md calls out                  *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "Ablations - switching off one design choice at a time (Script A)";
  let base = Booldiv.Substitute.extended_gdc_config in
  let variants =
    [
      ("full (ext. GDC)", base);
      ("no global implications (region only)", { base with gdc = false });
      ("no recursive learning", { base with learn_depth = 0 });
      ("no complement-phase division", { base with use_complement = false });
      ("no POS substitution", { base with try_pos = false });
      ("no extended division (basic mode)",
       { base with mode = Booldiv.Substitute.Basic });
      ("divisor pool of 1", { base with max_pool = 1 });
      ("single pass", { base with max_passes = 1 });
    ]
  in
  let rows =
    List.filter
      (fun r -> List.mem r.Suite.name [ "9sym"; "apex7"; "example2"; "rot"; "C880" ])
      Suite.rows
  in
  let prepared =
    List.map
      (fun row ->
        let net = Suite.build row in
        Synth.Script.run net Synth.Script.script_a;
        net)
      rows
  in
  let table =
    Table.create
      [
        ("variant", Table.Left);
        ("literals", Table.Right);
        ("cpu", Table.Right);
        ("verified", Table.Left);
      ]
  in
  let init = List.fold_left (fun acc n -> acc + Lit_count.factored n) 0 prepared in
  Table.add_row table [ "(initial)"; string_of_int init; ""; "" ];
  List.iter
    (fun (name, config) ->
      let total = ref 0 and ok = ref true in
      let (), cpu =
        Rar_util.Stopwatch.time (fun () ->
            List.iter
              (fun net ->
                let scratch = Network.copy net in
                ignore (Booldiv.Substitute.run ~config scratch);
                total := !total + Lit_count.factored scratch;
                if not (Equiv.equivalent scratch net) then ok := false)
              prepared)
      in
      Table.add_row table
        [
          name;
          string_of_int !total;
          Rar_util.Stopwatch.seconds_to_string cpu;
          (if !ok then "yes" else "NO");
        ])
    variants;
  print_string (Table.render table);
  print_endline
    "Each row disables one mechanism; literal totals quantify its\n\
     contribution on a 5-circuit subset."

(* ------------------------------------------------------------------ *)
(* cubeops - packed-kernel microbenchmark                              *)
(* ------------------------------------------------------------------ *)

(* The seed's list-based cube operations, kept here as the in-bench
   baseline so the snapshot records what the packed Cube_kernel buys on
   the two hottest primitives (containment and intersection). *)
module List_cube = struct
  let rec subset small big =
    match (small, big) with
    | [], _ -> true
    | _ :: _, [] -> false
    | s :: srest, b :: brest ->
      if s = b then subset srest brest
      else if b < s then subset small brest
      else false

  let rec merge c1 c2 =
    match (c1, c2) with
    | [], c | c, [] -> Some c
    | l1 :: r1, l2 :: r2 ->
      if l1 = l2 then Option.map (fun rest -> l1 :: rest) (merge r1 r2)
      else if l1 / 2 = l2 / 2 then None
      else if l1 < l2 then Option.map (fun rest -> l1 :: rest) (merge r1 c2)
      else Option.map (fun rest -> l2 :: rest) (merge c1 r2)
end

type cubeops_result = {
  co_vars : int;
  co_cubes : int;
  contain_base_mops : float;
  contain_kernel_mops : float;
  inter_base_mops : float;
  inter_kernel_mops : float;
}

let cubeops_speedups r =
  ( r.contain_kernel_mops /. Float.max r.contain_base_mops 1e-9,
    r.inter_kernel_mops /. Float.max r.inter_base_mops 1e-9 )

(* Synthetic covers wide enough to span multiple kernel words (96
   variables = 4 packed words) with realistic cube sizes. Rounds grow
   until each measured region runs at least ~0.2 CPU seconds, so the
   Mops figures are stable across machines. *)
let cubeops_measure () =
  let rng = Rar_util.Rng.create 0xC0BE5 in
  let vars = 96 and ncubes = 192 in
  let random_cube () =
    let n = 4 + Rar_util.Rng.int rng 9 in
    let rec pick acc k =
      if k = 0 then acc
      else begin
        let v = Rar_util.Rng.int rng vars in
        if List.exists (fun code -> code lsr 1 = v) acc then pick acc k
        else
          pick
            (((2 * v) + if Rar_util.Rng.bool rng then 1 else 0) :: acc)
            (k - 1)
      end
    in
    List.sort Int.compare (pick [] n)
  in
  let lists = Array.init ncubes (fun _ -> random_cube ()) in
  let kernels = Array.map Cube_kernel.of_code_set lists in
  let sink = ref 0 in
  let measure f =
    let rec go rounds =
      let (), cpu =
        Rar_util.Stopwatch.time_cpu (fun () ->
            for _ = 1 to rounds do
              f ()
            done)
      in
      if cpu >= 0.2 then
        float_of_int (rounds * ncubes * ncubes) /. cpu /. 1e6
      else go (rounds * 4)
    in
    go 1
  in
  let contain_base_mops =
    measure (fun () ->
        for i = 0 to ncubes - 1 do
          for j = 0 to ncubes - 1 do
            if List_cube.subset lists.(i) lists.(j) then incr sink
          done
        done)
  in
  let contain_kernel_mops =
    measure (fun () ->
        for i = 0 to ncubes - 1 do
          for j = 0 to ncubes - 1 do
            if Cube_kernel.subset kernels.(i) kernels.(j) then incr sink
          done
        done)
  in
  let inter_base_mops =
    measure (fun () ->
        for i = 0 to ncubes - 1 do
          for j = 0 to ncubes - 1 do
            match List_cube.merge lists.(i) lists.(j) with
            | Some _ -> incr sink
            | None -> ()
          done
        done)
  in
  let inter_kernel_mops =
    measure (fun () ->
        for i = 0 to ncubes - 1 do
          for j = 0 to ncubes - 1 do
            match Cube_kernel.merge kernels.(i) kernels.(j) with
            | Some _ -> incr sink
            | None -> ()
          done
        done)
  in
  ignore !sink;
  {
    co_vars = vars;
    co_cubes = ncubes;
    contain_base_mops;
    contain_kernel_mops;
    inter_base_mops;
    inter_kernel_mops;
  }

(* Key names deliberately avoid the "cpu_seconds" substring: the snapshot
   regression parser sums every such occurrence after its marker. *)
let cubeops_json r =
  Printf.sprintf
    "{\"vars\": %d, \"cubes\": %d, \"containment\": {\"baseline_mops\": \
     %.2f, \"kernel_mops\": %.2f, \"speedup\": %.2f}, \"intersect\": \
     {\"baseline_mops\": %.2f, \"kernel_mops\": %.2f, \"speedup\": %.2f}}"
    r.co_vars r.co_cubes r.contain_base_mops r.contain_kernel_mops
    (fst (cubeops_speedups r))
    r.inter_base_mops r.inter_kernel_mops
    (snd (cubeops_speedups r))

let print_cubeops r =
  let contain_speedup, inter_speedup = cubeops_speedups r in
  Printf.printf
    "cubeops (%d vars, %d cubes, all pairs):\n\
    \  containment  %7.2f Mops list  %7.2f Mops packed  (%.1fx)\n\
    \  intersect    %7.2f Mops list  %7.2f Mops packed  (%.1fx)\n"
    r.co_vars r.co_cubes r.contain_base_mops r.contain_kernel_mops
    contain_speedup r.inter_base_mops r.inter_kernel_mops inter_speedup

let cubeops_report () =
  section "cubeops - packed cube kernel vs seed list cubes";
  print_cubeops (cubeops_measure ())

(* ------------------------------------------------------------------ *)
(* bench - machine-readable perf snapshot (BENCH_resub.json)           *)
(* ------------------------------------------------------------------ *)

(* The numbers that follow [key] in the previous snapshot, in order,
   counting only occurrences after [after] when it is given. Parsed by
   hand (no JSON dependency). [[]] when there is no snapshot. *)
let snapshot_numbers ?after ~key path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> []
  | content ->
    let find needle from =
      let n = String.length needle in
      let rec go i =
        if i + n > String.length content then None
        else if String.sub content i n = needle then Some i
        else go (i + 1)
      in
      go from
    in
    let number_at j =
      let k = ref j in
      while
        !k < String.length content
        && match content.[!k] with
           | '0' .. '9' | '.' | '-' | 'e' | '+' -> true
           | _ -> false
      do
        incr k
      done;
      (float_of_string_opt (String.sub content j (!k - j)), !k)
    in
    let rec scan from acc =
      match find key from with
      | None -> List.rev acc
      | Some i -> (
        match number_at (i + String.length key) with
        | Some v, k -> scan k (v :: acc)
        | None, k -> scan k acc)
    in
    let start =
      match after with
      | None -> Some 0
      | Some marker -> find marker 0
    in
    Option.fold ~none:[] ~some:(fun start -> scan start []) start

let snapshot_sum ?after ~key path =
  match snapshot_numbers ?after ~key path with
  | [] -> None
  | values -> Some (List.fold_left ( +. ) 0.0 values)

let snapshot_first ~key path =
  match snapshot_numbers ~key path with [] -> None | v :: _ -> Some v

(* Every per-method total record follows the "totals" marker. *)
let previous_total_cpu =
  snapshot_sum ~after:"\"totals\"" ~key:"\"cpu_seconds\": "

(* The previous snapshot's summed script-benchmark fixpoint CPU: the
   "full_fixpoint_seconds" key appears only in the script_bench record. *)
let previous_script_cpu =
  snapshot_sum ~key:"\"full_fixpoint_seconds\": "

let previous_probe = snapshot_first ~key:"\"probe_seconds\": "

let previous_script_probe = snapshot_first ~key:"\"script_probe_seconds\": "

let cpu_regression_limit = 1.20

(* Host speed, measured the way perfbench's calibration measures it:
   the fastest of three runs of a fixed allocation, hashing and sorting
   loop that calls no program code (about 7 ms on an uncontended 2-core
   x86-64 KVM guest). The snapshot stores it beside the timings, and the
   gates compare timings per unit of probe time, so a host that runs
   everything slower does not read as a regression. *)
let probe_work () =
  let table = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 40_000 do
    let k = i * 7919 land 4095 in
    (match Hashtbl.find_opt table k with
    | Some l -> Hashtbl.replace table k (i :: List.filteri (fun j _ -> j < 4) l)
    | None -> Hashtbl.replace table k [ i ]);
    acc := !acc + k
  done;
  let a = Array.init 4096 (fun i -> i * 31 land 1023) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (!acc + a.(7)))

let probe () =
  let once () =
    let t0 = Unix.gettimeofday () in
    probe_work ();
    Unix.gettimeofday () -. t0
  in
  let a = once () in
  let b = once () in
  Float.min a (Float.min b (once ()))

(* Fails the run (exit 3) when [now], divided by [speed] (this run's
   probe over the previous snapshot's), exceeds the previous figure by
   more than [cpu_regression_limit]. *)
let regression_gate ~label ~speed ~previous now =
  match previous with
  | None -> ()
  | Some old ->
    let scaled = now /. speed in
    Printf.printf
      "%s: %.2fs, %.2fs at the previous snapshot's host speed (previous \
       snapshot: %.2fs)\n"
      label now scaled old;
    if old > 0.0 && scaled > old *. cpu_regression_limit then begin
      Printf.printf "PERF REGRESSION: %s grew by more than %.0f%%\n" label
        ((cpu_regression_limit -. 1.0) *. 100.0);
      exit 3
    end

(* ------------------------------------------------------------------ *)
(* Multi-pass script benchmark: fixpoint CPU and pass trajectory       *)
(* ------------------------------------------------------------------ *)

type script_bench_cell = {
  sb_method : string;
  sb_full : float;  (* whole fixpoint CPU seconds *)
  sb_pass : int list;  (* per-pass divisions_attempted *)
}

(* The whole resubstitution fixpoint after Script A, per method: its CPU
   (which feeds the regression gate) and how many divisions each pass
   attempted. *)
let script_bench_measure rows =
  let measure meth =
    let once () =
      let cpu = ref 0.0 in
      let agg = Rar_util.Counters.create () in
      List.iter
        (fun row ->
          let net = Suite.build row in
          Synth.Script.run net Synth.Script.script_a;
          let counters = Rar_util.Counters.create () in
          let (), secs =
            Rar_util.Stopwatch.time_cpu (fun () ->
                match meth with
                | `Sis -> ignore (Synth.Resub.run ~counters net)
                | `Ext -> ignore (Booldiv.Substitute.run ~counters net))
          in
          cpu := !cpu +. secs;
          Rar_util.Counters.accumulate agg counters)
        rows;
      (!cpu, agg.Rar_util.Counters.pass_divisions)
    in
    (* min of two runs: the division counts are deterministic, the CPU
       figure is contention-noisy and feeds a 20% regression gate. *)
    let cpu1, divs = once () in
    let cpu2, _ = once () in
    (Float.min cpu1 cpu2, divs)
  in
  let cell name meth =
    let full, pass = measure meth in
    { sb_method = name; sb_full = full; sb_pass = pass }
  in
  [ cell "sis" `Sis; cell "ext" `Ext ]

let ints_string l = String.concat ", " (List.map string_of_int l)

(* Keys deliberately avoid the "cpu_seconds" substring (see the totals
   parser above); "full_fixpoint_seconds" has its own regression parser. *)
let script_bench_json ~probe cells =
  let cell c =
    Printf.sprintf
      "{\"method\": %S, \"full_fixpoint_seconds\": %.6f, \
       \"pass_divisions\": [%s]}"
      c.sb_method c.sb_full (ints_string c.sb_pass)
  in
  Printf.sprintf
    "{\"script\": \"a\", \"script_probe_seconds\": %.6f, \"methods\": [%s]}"
    probe
    (String.concat ", " (List.map cell cells))

let print_script_bench cells =
  Printf.printf "multi-pass script benchmark (script A, full fixpoint):\n";
  List.iter
    (fun c ->
      Printf.printf "  %-4s %.3fs cpu  divisions per pass [%s]\n" c.sb_method
        c.sb_full (ints_string c.sb_pass))
    cells

(* ------------------------------------------------------------------ *)
(* DC-rich fixture shared by dccheck and the bench snapshot            *)
(* ------------------------------------------------------------------ *)

(* Every node carries cubes that are live only on input patterns the
   [.exdc] cover forbids (a=b=1 and c=d=1 never occur), so a DC-aware
   run can delete them while a DC-blind run must keep every one.
   Read from bench/fixtures/dcrich.blif (which the CLI and service
   tests share), so the gate also exercises the [.exdc] reader. *)
let fixture name = Filename.concat (Filename.concat "bench" "fixtures") name

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let dc_fixture () = Logic_network.Blif.read_file_dc (fixture "dcrich.blif")

(* Minimum factored literals the DC-aware run must save over the
   DC-blind one on the fixture, per Boolean method. *)
let dc_fixture_floor = [ ("basic", 4); ("ext", 4); ("ext-gdc", 4) ]

(* One (method, plain literals, DC literals, verified modulo DC) row of
   the fixture — shared by the dccheck gate and the bench snapshot
   record. *)
let dc_fixture_cells () =
  let net, dc = dc_fixture () in
  List.map
    (fun (name, meth) ->
      let plain = Network.copy net in
      Synth.Script.run plain Synth.Script.script_a;
      Synth.Script.resub_command meth plain;
      let dcrun = Network.copy net in
      Synth.Script.run dcrun Synth.Script.script_a;
      Synth.Script.resub_command ~dc meth dcrun;
      let verified =
        match Equiv.check_dc dc dcrun net with
        | Equiv.Equivalent -> true
        | Equiv.Counterexample _ -> false
      in
      (name, Lit_count.factored plain, Lit_count.factored dcrun, verified))
    Synth.Script.resub_methods

(* The bench snapshot's "dc" record. Key names avoid the "cpu_seconds" /
   "wall_seconds" substrings the regression parsers scan for. *)
let dc_json () =
  Printf.sprintf "{\"fixture\": \"dcrich\", \"methods\": [%s]}"
    (String.concat ", "
       (List.map
          (fun (name, plain, with_dc, verified) ->
            Printf.sprintf
              "{\"method\": %S, \"plain_literals\": %d, \"dc_literals\": \
               %d, \"verified_modulo_dc\": %b}"
              name plain with_dc verified)
          (dc_fixture_cells ())))

(* Emits one JSON record per (circuit, method) cell plus per-method
   totals: factored literals, CPU and wall seconds, verification status,
   and the divisor-filter counters, so successive PRs can diff resub
   timing and filtered-pair counts mechanically. The "cpu_seconds" field
   is genuine processor time ([Sys.time]); "wall_seconds" is the
   elapsed-clock figure the label used to (mis)report. The regression
   gate compares cpu_seconds, the load-insensitive one: total CPU more
   than 20% above the previous snapshot's, after scaling by the two
   runs' host probes, fails. *)
let bench_json ?(path = "BENCH_resub.json") ?sim_seed ?sim_words rows =
  section "bench - machine-readable resub snapshot";
  let settings =
    let d = Synth.Script.default_settings in
    {
      d with
      sim_seed = Option.value sim_seed ~default:d.sim_seed;
      sim_words = Option.value sim_words ~default:d.sim_words;
    }
  in
  let baseline_cpu = previous_total_cpu path in
  let baseline_script = previous_script_cpu path in
  let baseline_probe = previous_probe path in
  let baseline_script_probe = previous_script_probe path in
  let cubeops = cubeops_measure () in
  print_cubeops cubeops;
  (* Each timed section is bracketed by the probes before and after
     it, as in perfbench's calibration; [weighed] collects each cell's
     CPU seconds with the mean of its two probes. *)
  let last_probe = ref (probe ()) and weighed = ref [] in
  let bracketed ~cpu f =
    let result = f () in
    let after = probe () in
    weighed := (cpu result, (!last_probe +. after) /. 2.0) :: !weighed;
    last_probe := after;
    result
  in
  let script_cells = script_bench_measure rows in
  let script_probe = (!last_probe +. probe ()) /. 2.0 in
  print_script_bench script_cells;
  last_probe := probe ();
  let cells =
    List.map
      (fun row ->
        let net = Suite.build row in
        Synth.Script.run net Synth.Script.script_a;
        let init = Lit_count.factored net in
        let per_method =
          List.map
            (fun (name, meth) ->
              let scratch = Network.copy net in
              let counters = Rar_util.Counters.create () in
              let (), span =
                bracketed
                  ~cpu:(fun (_, span) -> span.Rar_util.Stopwatch.cpu_seconds)
                  (fun () ->
                    Rar_util.Stopwatch.time_span (fun () ->
                        Synth.Script.resub_command ~settings ~counters meth
                          scratch))
              in
              let lits = Lit_count.factored scratch in
              let ok = Equiv.equivalent scratch net in
              Printf.printf "  %-12s %-8s %4d lits  %.2fs cpu  %.2fs wall  %s\n"
                row.Suite.name name lits
                span.Rar_util.Stopwatch.cpu_seconds
                span.Rar_util.Stopwatch.wall_seconds
                (if ok then "ok" else "FAIL");
              (name, lits, span, ok, counters))
            Synth.Script.resub_methods
        in
        (row.Suite.name, init, per_method))
      rows
  in
  (* The probe time that divides the summed CPU into the sum of each
     cell's CPU over its own probes. *)
  let probe_seconds =
    let cpu, scaled =
      List.fold_left
        (fun (cpu, scaled) (c, p) -> (cpu +. c, scaled +. (c /. p)))
        (0.0, 0.0) !weighed
    in
    if scaled > 0.0 then cpu /. scaled else !last_probe
  in
  let speed now previous =
    match previous with Some old when old > 0.0 -> now /. old | _ -> 1.0
  in
  let method_names = List.map fst Synth.Script.resub_methods in
  let totals =
    List.map
      (fun name ->
        let lits = ref 0 and cpu = ref 0.0 and wall = ref 0.0 and ok = ref true in
        let counters = Rar_util.Counters.create () in
        List.iter
          (fun (_, _, per_method) ->
            List.iter
              (fun (n, l, (s : Rar_util.Stopwatch.span), o, k) ->
                if n = name then begin
                  lits := !lits + l;
                  cpu := !cpu +. s.Rar_util.Stopwatch.cpu_seconds;
                  wall := !wall +. s.Rar_util.Stopwatch.wall_seconds;
                  if not o then ok := false;
                  Rar_util.Counters.accumulate counters k
                end)
              per_method)
          cells;
        ( name,
          !lits,
          {
            Rar_util.Stopwatch.cpu_seconds = !cpu;
            Rar_util.Stopwatch.wall_seconds = !wall;
          },
          !ok,
          counters ))
      method_names
  in
  let buffer = Buffer.create 4096 in
  let cell_json (name, lits, (span : Rar_util.Stopwatch.span), ok, counters) =
    Printf.sprintf
      "{\"method\": %S, \"literals\": %d, \"cpu_seconds\": %.6f, \
       \"wall_seconds\": %.6f, \"verified\": %b, \"counters\": %s}"
      name lits span.Rar_util.Stopwatch.cpu_seconds
      span.Rar_util.Stopwatch.wall_seconds ok
      (Rar_util.Counters.to_json counters)
  in
  Buffer.add_string buffer
    (Printf.sprintf
       "{\n  \"sim_words\": %d,\n  \"probe_seconds\": %.6f,\n"
       settings.sim_words probe_seconds);
  (* The cubeops and dc records must precede the "totals" marker: the
     regression parser above sums every "cpu_seconds" after it, and
     these figures deliberately use different key names. *)
  Buffer.add_string buffer
    (Printf.sprintf
       "  \"cubeops\": %s,\n  \"script_bench\": %s,\n  \"dc\": %s,\n  \
        \"circuits\": [\n"
       (cubeops_json cubeops)
       (script_bench_json ~probe:script_probe script_cells)
       (dc_json ()));
  List.iteri
    (fun i (circuit, init, per_method) ->
      Buffer.add_string buffer
        (Printf.sprintf
           "    {\"circuit\": %S, \"initial_literals\": %d, \"methods\": [%s]}%s\n"
           circuit init
           (String.concat ", " (List.map cell_json per_method))
           (if i < List.length cells - 1 then "," else "")))
    cells;
  Buffer.add_string buffer "  ],\n  \"totals\": [\n";
  List.iteri
    (fun i total ->
      Buffer.add_string buffer
        (Printf.sprintf "    %s%s\n" (cell_json total)
           (if i < List.length totals - 1 then "," else "")))
    totals;
  Buffer.add_string buffer "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buffer);
  close_out oc;
  Printf.printf "\nwrote %s (%d circuits x %d methods)\n" path
    (List.length cells) (List.length method_names);
  List.iter
    (fun (name, lits, (span : Rar_util.Stopwatch.span), ok, counters) ->
      Printf.printf "  %-8s %5d lits  %6.2fs cpu  %6.2fs wall  %s  [%s]\n" name
        lits span.Rar_util.Stopwatch.cpu_seconds
        span.Rar_util.Stopwatch.wall_seconds
        (if ok then "ok" else "FAIL")
        (Rar_util.Counters.to_string counters))
    totals;
  let total field =
    List.fold_left
      (fun acc (_, _, (s : Rar_util.Stopwatch.span), _, _) -> acc +. field s)
      0.0 totals
  in
  let speed_cells = speed probe_seconds baseline_probe in
  let speed_script = speed script_probe baseline_script_probe in
  Printf.printf "host probe: %.4fs (%.2fx the previous snapshot's)\n"
    probe_seconds speed_cells;
  regression_gate ~label:"total cpu_seconds" ~speed:speed_cells
    ~previous:baseline_cpu
    (total (fun s -> s.Rar_util.Stopwatch.cpu_seconds));
  regression_gate ~label:"multi-pass script benchmark cpu" ~speed:speed_script
    ~previous:baseline_script
    (List.fold_left (fun acc c -> acc +. c.sb_full) 0.0 script_cells)

(* ------------------------------------------------------------------ *)
(* The pinned totals and per-cell helpers of the gates                 *)
(* ------------------------------------------------------------------ *)

(* The quick-suite per-method factored-literal totals after Script A.
   These are the seed's sequential figures; any drift means the
   scheduler changed a result. *)
let expected_quick_totals =
  [
    ("sis", 245); ("basic", 241); ("ext", 239); ("ext-gdc", 235);
    ("resub-k", 238);
  ]

(* The reference run of one cell: default settings, no view. *)
let reference_run ?dc ?counters meth net =
  let reference = Network.copy net in
  Synth.Script.resub_command ?dc ?counters meth reference;
  reference

(* Script A on every row, then [cell row net (name, meth)] per method. *)
let each_cell rows cell =
  List.iter
    (fun row ->
      let net = Suite.build row in
      Synth.Script.run net Synth.Script.script_a;
      List.iter (cell row net) Synth.Script.resub_methods)
    rows

let add_total totals name lits =
  Hashtbl.replace totals name
    ((try Hashtbl.find totals name with Not_found -> 0) + lits)

let check_totals ~failures totals =
  List.iter
    (fun (name, expect) ->
      let got = try Hashtbl.find totals name with Not_found -> 0 in
      Printf.printf "  total %-8s %4d lits (expected %d)\n" name got expect;
      if got <> expect then incr failures)
    expected_quick_totals

(* ------------------------------------------------------------------ *)
(* shardcheck - an empty don't-care view must leave no byte behind    *)
(* ------------------------------------------------------------------ *)

(* Every (circuit, method) cell run with an explicitly attached empty
   don't-care view must be byte-identical to its no-view reference; on
   the quick suite the per-method totals are pinned. *)
let shard_check ~pinned rows =
  section "shardcheck - empty-view byte-identity + pinned totals";
  let failures = ref 0 in
  let totals = Hashtbl.create 7 in
  each_cell rows (fun row net (name, meth) ->
      let reference = reference_run meth net in
      let lits = Lit_count.factored reference in
      add_total totals name lits;
      let label = Printf.sprintf "%-12s %-8s" row.Suite.name name in
      let with_view =
        reference_run ~dc:(Logic_network.Dont_care.create ()) meth net
      in
      if
        String.equal (Network.to_string with_view)
          (Network.to_string reference)
      then
        Printf.printf "  %s %4d lits  identical with an empty view\n" label
          lits
      else begin
        Printf.printf "  %s DIVERGES with an empty view\n" label;
        incr failures
      end);
  if pinned then check_totals ~failures totals;
  if !failures > 0 then begin
    Printf.printf "shardcheck: %d check(s) FAILED\n" !failures;
    exit 7
  end
  else
    Printf.printf "shardcheck: every cell byte-identical with an empty view\n"

(* ------------------------------------------------------------------ *)
(* tracecheck - degraded runs must complete and trace valid JSON lines *)
(* ------------------------------------------------------------------ *)

let trace_check rows =
  section "tracecheck - degraded-run completion + trace JSON-lines lint";
  let path = Filename.temp_file "rarsub_trace" ".jsonl" in
  let failures = ref 0 in
  let counters = Rar_util.Counters.create () in
  let trace = Rar_util.Trace.to_file path in
  (* A tiny per-unit fault budget forces nearly every division to exhaust
     mid-removal: the run must still complete, every result must stay
     equivalent (degradation only weakens the optimisation), and each
     cut-short unit must be visible in the trace. *)
  List.iter
    (fun row ->
      let net = Suite.build row in
      Synth.Script.run net Synth.Script.script_a;
      let scratch = Network.copy net in
      Synth.Script.resub_command
        ~settings:{ Synth.Script.default_settings with fault_fuel = Some 5 }
        ~trace ~counters
        Synth.Script.Ext scratch;
      let ok = Equiv.equivalent scratch net in
      if not ok then incr failures;
      Printf.printf "  %-12s degraded run %s\n" row.Suite.name
        (if ok then "equivalent" else "NOT EQUIVALENT"))
    rows;
  (* The same tiny budget on the windowed AIG optimiser: every window's
     divisions degrade, yet the run completes, never adds a gate, and
     still simulates like its input. *)
  (let a = Aiger.parse (read_whole_file (fixture "random_small.aag")) in
   let config =
     {
       Synth.Aig_opt.default_config with
       meth = Synth.Script.Ext;
       settings = { Synth.Script.default_settings with fault_fuel = Some 5 };
     }
   in
   let opt, stats = Synth.Aig_opt.optimize ~config ~trace ~counters a in
   let ok =
     stats.Synth.Aig_opt.gates_after <= stats.Synth.Aig_opt.gates_before
     && Equiv.equivalent (Aig.to_network a) (Aig.to_network opt)
   in
   if not ok then incr failures;
   Printf.printf "  %-12s degraded optimize-aig %d -> %d gates, %s\n"
     "random_small" stats.Synth.Aig_opt.gates_before
     stats.Synth.Aig_opt.gates_after
     (if ok then "equivalent" else "NOT EQUIVALENT OR GREW"));
  Rar_util.Trace.close trace;
  let lines = ref 0 and bad = ref 0 and degrade_events = ref 0 in
  let checkpoint_events = ref 0 in
  let starts_with prefix line =
    String.length line >= String.length prefix
    && String.sub line 0 (String.length prefix) = prefix
  in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       (match Rar_util.Trace.lint line with
       | Ok () -> ()
       | Error msg ->
         incr bad;
         if !bad <= 5 then Printf.printf "  line %d: %s\n" !lines msg);
       if starts_with "{\"event\": \"degrade\"," line then
         incr degrade_events;
       if starts_with "{\"event\": \"checkpoint\"," line then
         incr checkpoint_events
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Printf.printf
    "trace: %d line(s), %d malformed, %d degrade, %d checkpoint event(s)\n"
    !lines !bad !degrade_events !checkpoint_events;
  Printf.printf "degradations tallied in counters: %d (floor rejects %d)\n"
    (Atomic.get counters.Rar_util.Counters.degradations)
    (Atomic.get counters.Rar_util.Counters.floor_rejects);
  if
    !bad > 0 || !failures > 0 || !degrade_events = 0
    || Atomic.get counters.Rar_util.Counters.degradations = 0
    || !checkpoint_events = 0
  then begin
    Printf.printf "tracecheck FAILED\n";
    exit 5
  end
  else
    Printf.printf
      "tracecheck: degraded runs equivalent, trace well-formed, \
       degradations and checkpoint passes recorded\n"

(* ------------------------------------------------------------------ *)
(* dccheck - external don't-care discipline gate                       *)
(* ------------------------------------------------------------------ *)

(* The don't-care discipline on a non-empty view, gated (that an empty
   view is invisible is shardcheck's): every Boolean method meets its
   improvement floor on the fixture, never regresses, and the result
   verifies modulo DC. *)
let dc_check () =
  section "dccheck - external don't-care discipline gate";
  let failures = ref 0 in
  (* DC-rich fixture: improvement floor + verify modulo DC. *)
  List.iter
    (fun (name, plain, with_dc, verified) ->
      let floor = Option.value ~default:0 (List.assoc_opt name dc_fixture_floor) in
      let ok = with_dc <= plain - floor && verified in
      Printf.printf
        "  dcrich       %-8s %4d -> %4d lits (floor %d)  verify-modulo-DC \
         %s  %s\n"
        name plain with_dc floor
        (if verified then "pass" else "FAIL")
        (if ok then "ok" else "FAIL");
      if not ok then incr failures)
    (dc_fixture_cells ());
  if !failures > 0 then begin
    Printf.printf "dccheck: %d check(s) FAILED\n" !failures;
    exit 8
  end
  else
    Printf.printf "dccheck: fixture floors met, DC results verified\n"

(* ------------------------------------------------------------------ *)
(* kcheck - constructive k-resubstitution gate                         *)
(* ------------------------------------------------------------------ *)

(* The resub-k quick-suite literal ceiling: the constructive driver
   must do at least as well as extended division (the "ext" column of
   [expected_quick_totals]). *)
let kresub_quick_floor = 239

(* Gates for the constructive k-resub driver (byte identity across
   empty views, and the five pinned totals, are shardcheck's, which runs
   every method in {!Synth.Script.resub_methods}):
   1. every method's result is verified with the BDD oracle
      ({!Robdd.Of_network.equivalent}) — an exact check, independent of
      the random-simulation [Equiv] the other gates use, so every
      committed substitution is proven, not sampled; since shardcheck
      holds the empty-view run byte-identical to that result, this
      verifies it too;
   2. on the quick suite resub-k's total meets the ext floor;
   3. resub-k's candidate-construction CPU stays below ext's division
      CPU (exact validation is accounted separately — it replaces the
      per-candidate division work the signatures used to gate). *)
let k_check ~pinned rows =
  section "kcheck - constructive k-resub: BDD verify + floor";
  let failures = ref 0 in
  let k_total = ref 0 in
  let construct_cpu = ref 0.0 and validate_cpu = ref 0.0 in
  let ext_division = ref 0.0 in
  each_cell rows (fun row net (name, meth) ->
      let counters = Rar_util.Counters.create () in
      let reference = reference_run ~counters meth net in
      let lits = Lit_count.factored reference in
      let seconds field = Atomic.get (field counters) in
      (match meth with
      | Synth.Script.Ext ->
        ext_division :=
          !ext_division
          +. seconds (fun c -> c.Rar_util.Counters.division_seconds)
      | Synth.Script.Kresub ->
        k_total := !k_total + lits;
        construct_cpu :=
          !construct_cpu
          +. seconds (fun c -> c.Rar_util.Counters.filter_seconds);
        validate_cpu :=
          !validate_cpu
          +. seconds (fun c -> c.Rar_util.Counters.validation_seconds)
      | Synth.Script.Algebraic | Synth.Script.Basic | Synth.Script.Ext_gdc ->
        ());
      let bdd_ok = Robdd.Of_network.equivalent reference net in
      if not bdd_ok then incr failures;
      Printf.printf "  %-12s %-8s %4d lits  BDD %s\n" row.Suite.name name lits
        (if bdd_ok then "ok" else "FAIL"));
  if pinned then begin
    Printf.printf "  total %-8s %4d lits (floor: <= %d, the ext total)\n"
      "resub-k" !k_total kresub_quick_floor;
    if !k_total > kresub_quick_floor then incr failures
  end;
  Printf.printf
    "  cpu: resub-k construction %.3fs + validation %.3fs | ext division \
     %.3fs\n"
    !construct_cpu !validate_cpu !ext_division;
  if !ext_division > 0.0 && !construct_cpu >= !ext_division then begin
    Printf.printf
      "  resub-k candidate construction is not cheaper than ext division\n";
    incr failures
  end;
  if !failures > 0 then begin
    Printf.printf "kcheck: %d check(s) FAILED\n" !failures;
    exit 10
  end
  else Printf.printf "kcheck: BDD-verified, floor met\n"

(* ------------------------------------------------------------------ *)
(* Bechamel benches - one per table                                    *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  section "Bechamel timing benches (one per table, on the 'b9' circuit)";
  let open Bechamel in
  let prepared script =
    let row = Option.get (Suite.find "b9") in
    let net = Suite.build row in
    Synth.Script.run net script;
    net
  in
  let base_a = prepared Synth.Script.script_a in
  let base_b = prepared Synth.Script.script_b in
  let base_c = prepared Synth.Script.script_c in
  let bench_table name base =
    Test.make ~name
      (Staged.stage (fun () ->
           List.iter (fun (_, cmd) -> cmd (Network.copy base)) methods))
  in
  let row = Option.get (Suite.find "b9") in
  let original = Suite.build row in
  let tests =
    [
      bench_table "table2(scriptA)" base_a;
      bench_table "table3(scriptB)" base_b;
      bench_table "table4(scriptC)" base_c;
      Test.make ~name:"table5(script.algebraic)"
        (Staged.stage (fun () ->
             List.iter
               (fun (_, resub) ->
                 let scratch = Network.copy original in
                 Synth.Script.run ~resub scratch Synth.Script.script_algebraic)
               methods));
      Test.make ~name:"table1(vote collection)"
        (Staged.stage (fun () ->
             let net = extended_example () in
             let f = Builder.node net "f" and d = Builder.node net "D" in
             ignore (Booldiv.Vote.collect net ~f ~pool:[ d ])));
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) ()
  in
  let raw =
    Benchmark.all cfg
      Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"tables" tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some [ est ] -> Printf.printf "  %-32s %14.0f ns/run\n" name est
      | Some _ | None -> Printf.printf "  %-32s (no estimate)\n" name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* ------------------------------------------------------------------ *)
(* service - resident-daemon gate and throughput/latency snapshot      *)
(* ------------------------------------------------------------------ *)

module Protocol = Rar_service.Protocol
module Server = Rar_service.Server

(* One request per quick (circuit, method) cell, script A — the same
   shape as the comparison tables, so cold latencies line up with the
   familiar per-cell costs. *)
let service_workload rows =
  List.concat_map
    (fun row ->
      let blif = Logic_network.Blif.to_string (Suite.build row) in
      List.map
        (fun meth ->
          ( Printf.sprintf "%s/%s" row.Suite.name meth,
            { (Protocol.default_request ~blif) with Protocol.meth } ))
        [ "resub"; "ext" ])
    rows

let service_socket () =
  let path = Filename.temp_file "rarsubd" ".sock" in
  Sys.remove path;
  path

(* The CI gate: a scripted miss/hit sequence against a live daemon.
   Every response must be byte-identical to [Job.run_cold] (the
   [Job.run] + [Job.serialise] path of a cold [rarsub optimize -f]),
   the hit/miss flags and cache counters must match the script, and a
   malformed or oversized frame must get a clean refusal without
   taking the daemon down. Besides the quick cells, the workload holds
   a don't-care job on the DC-rich fixture, whose reply must carry the
   canonical [.exdc] section, and a [sis]-spelled duplicate of a
   [resub] job, which must be served from the [resub] job's slot. *)
let service_check rows =
  section "servicecheck - daemon miss/hit sequence vs cold references";
  let socket = service_socket () in
  let dc_job =
    ( "dcrich/ext",
      Protocol.default_request ~blif:(read_whole_file (fixture "dcrich.blif"))
    )
  in
  let workload = service_workload rows @ [ dc_job ] in
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> incr failures; Printf.printf "  FAILED %s\n" m) fmt in
  let trace_path = Filename.temp_file "rarsubd" ".trace" in
  let trace = Rar_util.Trace.to_file trace_path in
  let config =
    { (Server.default_config ~socket_path:socket) with Server.trace }
  in
  Server.with_server config (fun server ->
      List.iter
        (fun (label, request) ->
          let reference =
            match Rar_service.Job.run_cold request with
            | Ok entry -> entry.Rar_service.Cache.blif
            | Error m -> failwith m
          in
          if
            label = fst dc_job
            && not (List.mem ".exdc" (String.split_on_char '\n' reference))
          then fail "%s: cold reply lacks the .exdc section" label;
          let submit request expect_hit tag =
            match Server.Client.round_trip ~timeout:120.0 ~socket request with
            | Protocol.Refused m -> fail "%s %s: refused: %s" label tag m
            | Protocol.Result { blif; cache_hit; _ } ->
              if not (String.equal blif reference) then
                fail "%s %s: bytes differ from the cold run" label tag;
              if cache_hit <> expect_hit then
                fail "%s %s: cache_hit=%b, expected %b" label tag cache_hit
                  expect_hit
          in
          submit request false "miss";
          submit request true "hit";
          submit
            { request with Protocol.use_cache = false }
            false "bypass";
          Printf.printf "  %-24s miss/hit/bypass byte-identical\n" label)
        workload;
      (* Framing abuse: a garbage frame and an oversized frame must each
         draw a clean [Refused] reply, and the daemon must keep serving. *)
      let raw_connect () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        fd
      in
      let expect_refusal tag send =
        let fd = raw_connect () in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            send fd;
            match Protocol.read_frame fd with
            | None -> fail "%s: connection closed with no reply" tag
            | Some payload -> (
              match Protocol.decode_response payload with
              | Ok (Protocol.Refused _) ->
                Printf.printf "  %-24s cleanly refused\n" tag
              | Ok (Protocol.Result _) -> fail "%s: accepted!" tag
              | Error m -> fail "%s: unreadable reply: %s" tag m))
      in
      expect_refusal "garbage frame" (fun fd ->
          Protocol.write_frame fd "not a rarsub frame at all");
      expect_refusal "oversized frame" (fun fd ->
          let header = Bytes.create 4 in
          let len = Protocol.default_max_frame + 1 in
          Bytes.set header 0 (Char.chr ((len lsr 24) land 0xff));
          Bytes.set header 1 (Char.chr ((len lsr 16) land 0xff));
          Bytes.set header 2 (Char.chr ((len lsr 8) land 0xff));
          Bytes.set header 3 (Char.chr (len land 0xff));
          ignore (Unix.write fd header 0 4));
      (* Still alive after the abuse? Then the [sis] spelling of the first
         [resub] job: the same job, so a hit on the same bytes. *)
      let expect_hit what (label, request) =
        match Server.Client.round_trip ~timeout:120.0 ~socket request with
        | Protocol.Result { cache_hit = true; blif; _ } ->
          (match Rar_service.Job.run_cold request with
          | Ok entry when String.equal blif entry.Rar_service.Cache.blif -> ()
          | _ -> fail "%s %s: bytes differ from the cold run" what label);
          Printf.printf "  %-24s hit on %s\n" what label
        | Protocol.Result _ -> fail "%s %s: expected a cache hit" what label
        | Protocol.Refused m -> fail "%s %s: refused: %s" what label m
      in
      (match workload with
      | first :: _ -> expect_hit "daemon still serving:" first
      | [] -> ());
      (match
         List.find_opt
           (fun (_, r) -> r.Protocol.meth = "resub")
           workload
       with
      | Some (label, request) ->
        expect_hit "sis alias served:"
          (label, { request with Protocol.meth = "sis" })
      | None -> ());
      let n = List.length workload in
      let stats = Server.stats server in
      (match stats.Server.cache with
      | None -> fail "cache disabled in servicecheck config"
      | Some c ->
        (* n misses, then n hits, (bypasses touch no counter), plus the
           post-abuse hit and the alias hit. *)
        if c.Rar_service.Cache.hits <> n + 2 || c.Rar_service.Cache.misses <> n
        then
          fail "cache counters hits=%d misses=%d, expected %d/%d"
            c.Rar_service.Cache.hits c.Rar_service.Cache.misses (n + 2) n
        else
          Printf.printf "  cache counters: %d hits, %d misses, %d insertions\n"
            c.Rar_service.Cache.hits c.Rar_service.Cache.misses
            c.Rar_service.Cache.insertions));
  (* The trace file must lint line by line and reconstruct a complete
     timeline per job id: job_queued, then (for cached jobs) exactly one
     cache_hit or cache_miss, then job_done. *)
  Rar_util.Trace.close trace;
  let timelines = Hashtbl.create 64 in
  let ic = open_in trace_path in
  (try
     while true do
       let line = input_line ic in
       match Rar_util.Trace.fields_of_line line with
       | None -> fail "trace line does not lint: %s" line
       | Some fields -> (
         match (List.assoc_opt "event" fields, List.assoc_opt "job" fields) with
         | Some (`String event), Some (`Int job) ->
           Hashtbl.replace timelines job
             (event :: (try Hashtbl.find timelines job with Not_found -> []))
         | _ -> ())
     done
   with End_of_file -> close_in ic);
  Sys.remove trace_path;
  let n = List.length workload in
  (* 3n submissions + the post-abuse probe + the alias probe, job ids
     0 .. 3n + 1. *)
  let expected_jobs = (3 * n) + 2 in
  if Hashtbl.length timelines <> expected_jobs then
    fail "trace covers %d job ids, expected %d" (Hashtbl.length timelines)
      expected_jobs;
  Hashtbl.iter
    (fun job events ->
      match List.rev events with
      | "job_queued" :: middle ->
        (match List.rev middle with
        | "job_done" :: cache_events -> (
          match cache_events with
          | [] | [ "cache_hit" ] | [ "cache_miss" ] -> ()
          | _ ->
            fail "job %d: unexpected cache events %s" job
              (String.concat "," cache_events))
        | _ -> fail "job %d: timeline does not end with job_done" job)
      | _ -> fail "job %d: timeline does not start with job_queued" job)
    timelines;
  if !failures = 0 then
    Printf.printf "  trace: %d per-job timelines complete and linted\n"
      (Hashtbl.length timelines);
  if !failures > 0 then begin
    Printf.printf "servicecheck: %d check(s) FAILED\n" !failures;
    exit 8
  end
  else Printf.printf "servicecheck: every response byte-identical, counters exact\n"

(* The throughput/latency snapshot: a cold pass (fresh daemon, every
   job a miss) then [clients] concurrent connections replaying the same
   workload [rounds] times (every job a hit). Writes BENCH_service.json. *)
let service_bench ?(clients = 8) ?(rounds = 5) rows =
  section
    (Printf.sprintf "service bench - %d concurrent clients -> BENCH_service.json"
       clients);
  let socket = service_socket () in
  let workload = service_workload rows in
  let config = Server.default_config ~socket_path:socket in
  let cold, warm, warm_wall, stats =
    Server.with_server config (fun server ->
        let run_one conn request expect_hit =
          let reply, seconds =
            Rar_util.Stopwatch.time (fun () ->
                Server.Client.request conn request)
          in
          (match reply with
          | Protocol.Refused m -> failwith ("service bench: refused: " ^ m)
          | Protocol.Result { cache_hit; _ } ->
            if cache_hit <> expect_hit then
              failwith
                (Printf.sprintf "service bench: cache_hit=%b, expected %b"
                   cache_hit expect_hit));
          seconds
        in
        let cold =
          let conn = Server.Client.connect ~timeout:300.0 socket in
          Fun.protect
            ~finally:(fun () -> Server.Client.close conn)
            (fun () ->
              List.map
                (fun (_, request) -> run_one conn request false)
                workload)
        in
        let warm_client () =
          let conn = Server.Client.connect ~timeout:300.0 socket in
          Fun.protect
            ~finally:(fun () -> Server.Client.close conn)
            (fun () ->
              List.concat_map
                (fun _ ->
                  List.map
                    (fun (_, request) -> run_one conn request true)
                    workload)
                (List.init rounds Fun.id))
        in
        let (per_client : float list list), warm_wall =
          Rar_util.Stopwatch.time (fun () ->
              List.map Domain.join
                (List.init clients (fun _ -> Domain.spawn warm_client)))
        in
        (cold, List.concat per_client, warm_wall, Server.stats server))
  in
  let summarize what l =
    match Rar_util.Stopwatch.summarize (Array.of_list l) with
    | Some s -> s
    | None ->
      Printf.printf "service bench: no %s samples recorded\n" what;
      exit 9
  in
  let cold_s = summarize "cold" cold and warm_s = summarize "warm" warm in
  let warm_jobs = List.length warm in
  let jobs_per_sec = float_of_int warm_jobs /. warm_wall in
  let speedup = cold_s.Rar_util.Stopwatch.mean /. warm_s.Rar_util.Stopwatch.mean in
  Printf.printf "  unique jobs: %d   warm jobs: %d (%d clients x %d rounds)\n"
    (List.length workload) warm_jobs clients rounds;
  Printf.printf "  cold: mean %.4fs  p50 %.4fs  p99 %.4fs\n"
    cold_s.Rar_util.Stopwatch.mean cold_s.Rar_util.Stopwatch.p50
    cold_s.Rar_util.Stopwatch.p99;
  Printf.printf "  warm: mean %.6fs  p50 %.6fs  p99 %.6fs\n"
    warm_s.Rar_util.Stopwatch.mean warm_s.Rar_util.Stopwatch.p50
    warm_s.Rar_util.Stopwatch.p99;
  Printf.printf "  throughput: %.0f jobs/sec   cold-vs-warm speedup: %.1fx\n"
    jobs_per_sec speedup;
  let oc = open_out "BENCH_service.json" in
  Printf.fprintf oc
    "{\n\
    \  \"clients\": %d,\n\
    \  \"rounds\": %d,\n\
    \  \"unique_jobs\": %d,\n\
    \  \"warm_jobs\": %d,\n\
    \  \"jobs_per_sec\": %.1f,\n\
    \  \"cold\": %s,\n\
    \  \"warm\": %s,\n\
    \  \"cold_vs_warm_speedup\": %.1f,\n\
    \  \"cache\": %s\n\
     }\n"
    clients rounds (List.length workload) warm_jobs jobs_per_sec
    (Rar_util.Stopwatch.summary_to_json cold_s)
    (Rar_util.Stopwatch.summary_to_json warm_s)
    speedup
    (match stats.Server.cache with
    | Some c -> Rar_service.Cache.to_json c
    | None -> "null");
  close_out oc;
  Printf.printf "wrote BENCH_service.json\n";
  if speedup < 5.0 then begin
    Printf.printf
      "service bench: warm repeats only %.1fx faster than cold (gate: 5x)\n"
      speedup;
    exit 9
  end

(* ------------------------------------------------------------------ *)
(* aigcheck - AIGER round-trip + windowed-resub determinism gate       *)
(* ------------------------------------------------------------------ *)

let aig_check () =
  section "aigcheck - AIGER round-trips + windowed resub byte-identity";
  let failures = ref 0 in
  let expect name ok =
    if not ok then incr failures;
    Printf.printf "  %-44s %s\n" name (if ok then "ok" else "FAIL")
  in
  let fixtures =
    [ "edge_shapes.aag"; "random_small.aag"; "planted_small.aag";
      "random_medium.aag" ]
  in
  List.iter
    (fun name ->
      let s = read_whole_file (fixture name) in
      let a = Aiger.parse s in
      (* write/parse is a fixpoint on the canonical form, and the
         canonical form is exactly the compacted graph. *)
      let canon = Aiger.to_string a in
      let b = Aiger.parse canon in
      expect (name ^ ": parse = compact") (Aig.equal b (Aig.compact a));
      expect (name ^ ": write/parse fixpoint")
        (String.equal (Aiger.to_string b) canon);
      (* Index lists drop names, so the round trip is structural. *)
      let il = Aig.to_index_list b in
      expect (name ^ ": index-list round trip")
        (Aig.to_index_list (Aig.of_index_list il) = il))
    fixtures;
  (* Windowed resubstitution: byte-identical with window verification,
     whose final live recount matches the incremental count; gate count
     never increases, and the result simulates identically to the
     original through the Network bridge. *)
  List.iter
    (fun name ->
      let a = Aiger.parse (read_whole_file (fixture name)) in
      let run ?(verify_windows = false) () =
        let config = { Synth.Aig_opt.default_config with verify_windows } in
        Synth.Aig_opt.optimize ~config a
      in
      let opt1, stats1 = run () in
      (* A verifying run also recounts the live gates of the spliced
         graph once at the end and fails if the incremental count
         differs. *)
      (match run ~verify_windows:true () with
      | opt_v, stats_v ->
        expect
          (Printf.sprintf "%s: incremental live count %d = recount" name
             stats_v.Synth.Aig_opt.live_gates)
          (String.equal (Aiger.to_string opt1) (Aiger.to_string opt_v))
      | exception Failure msg ->
        expect (Printf.sprintf "%s: %s" name msg) false);
      expect
        (Printf.sprintf "%s: gates %d -> %d monotone" name
           stats1.Synth.Aig_opt.gates_before stats1.Synth.Aig_opt.gates_after)
        (stats1.Synth.Aig_opt.gates_after <= stats1.Synth.Aig_opt.gates_before);
      expect
        (Printf.sprintf "%s: simulation equivalent" name)
        (Equiv.equivalent (Aig.to_network a) (Aig.to_network opt1)))
    [ "random_small.aag"; "planted_small.aag"; "random_medium.aag" ];
  if !failures > 0 then begin
    Printf.printf "aigcheck: %d check(s) FAILED\n" !failures;
    exit 8
  end
  else Printf.printf "aigcheck: every round-trip and resub check passed\n"

(* ------------------------------------------------------------------ *)
(* aig - windowed-resub snapshot over >=10k-gate circuits              *)
(* ------------------------------------------------------------------ *)

let aig_bench () =
  section "aig - windowed resubstitution at real-benchmark scale";
  let circuits =
    [
      ("random_12k", Bench_suite.Generator.random_aig ~seed:3 ~n_inputs:64
         ~n_gates:12000 ());
      ("random_18k", Bench_suite.Generator.random_aig ~seed:9 ~n_inputs:96
         ~n_gates:18000 ());
      ("random_24k", Bench_suite.Generator.random_aig ~seed:17 ~n_inputs:128
         ~n_gates:24000 ());
      ("random_100k", Bench_suite.Generator.random_aig ~seed:29 ~n_inputs:256
         ~n_gates:100000 ());
    ]
  in
  let rows =
    List.map
      (fun (name, a) ->
        let lits_before = Lit_count.factored (Aig.to_network a) in
        let (opt, stats), wall =
          Rar_util.Stopwatch.time (fun () -> Synth.Aig_opt.optimize a)
        in
        let lits_after = Lit_count.factored (Aig.to_network opt) in
        Printf.printf
          "  %-12s gates %6d -> %6d   lits %7d -> %7d   %4d/%d windows \
           accepted   %6.2fs\n"
          name stats.Synth.Aig_opt.gates_before
          stats.Synth.Aig_opt.gates_after lits_before lits_after
          stats.Synth.Aig_opt.accepted stats.Synth.Aig_opt.windows wall;
        (name, stats, lits_before, lits_after, wall))
      circuits
  in
  let oc = open_out "BENCH_aig.json" in
  Printf.fprintf oc "{\n  \"circuits\": [\n";
  List.iteri
    (fun i (name, stats, lits_before, lits_after, wall) ->
      Printf.fprintf oc
        "    { \"name\": %S, \"gates_before\": %d, \"gates_after\": %d,\n\
        \      \"lits_before\": %d, \"lits_after\": %d,\n\
        \      \"windows\": %d, \"accepted\": %d, \"wall_s\": %.3f }%s\n"
        name stats.Synth.Aig_opt.gates_before stats.Synth.Aig_opt.gates_after
        lits_before lits_after stats.Synth.Aig_opt.windows
        stats.Synth.Aig_opt.accepted wall
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_aig.json\n"

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* key=value tokens steer the bench snapshot; plain words select
     sections. *)
  let kv key tok =
    let prefix = key ^ "=" in
    if String.starts_with ~prefix tok then
      int_of_string_opt
        (String.sub tok (String.length prefix)
           (String.length tok - String.length prefix))
    else None
  in
  let clients =
    List.fold_left
      (fun acc tok ->
        match kv "clients" tok with Some n -> max 1 n | None -> acc)
      8 args
  in
  let sim_seed =
    List.fold_left
      (fun acc tok ->
        match kv "sim-seed" tok with Some n -> Some n | None -> acc)
      None args
  in
  let sim_words =
    List.fold_left
      (fun acc tok ->
        match kv "sim-words" tok with Some n -> Some (max 1 n) | None -> acc)
      None args
  in
  let args =
    List.filter
      (fun tok ->
        kv "sim-seed" tok = None && kv "sim-words" tok = None
        && kv "clients" tok = None)
      args
  in
  let quick = List.mem "quick" args in
  let rows = if quick then Suite.quick_rows else Suite.rows in
  let explicit = List.filter (fun a -> a <> "quick") args in
  let selected name = explicit = [] || List.mem name explicit in
  if selected "fig1" then fig1 ();
  if selected "fig2" then fig2 ();
  if selected "table1" || selected "fig4" then table1_and_fig4 ();
  if selected "table2" then
    comparison_table
      ~title:"Table II - Script A (eliminate; simplify) + resubstitution"
      ~script:Synth.Script.script_a rows;
  if selected "table3" then
    comparison_table
      ~title:"Table III - Script B (Script A + gcx) + resubstitution"
      ~script:Synth.Script.script_b rows;
  if selected "table4" then
    comparison_table
      ~title:"Table IV - Script C (Script A + gkx) + resubstitution"
      ~script:Synth.Script.script_c rows;
  if selected "table5" then table_v rows;
  if selected "ablation" then ablations ();
  if selected "bech" then bechamel ();
  if List.mem "shardcheck" explicit then shard_check ~pinned:quick rows;
  if List.mem "tracecheck" explicit then trace_check rows;
  if List.mem "dccheck" explicit then dc_check ();
  if List.mem "kcheck" explicit then k_check ~pinned:quick rows;
  if List.mem "cubeops" explicit then cubeops_report ();
  if List.mem "servicecheck" explicit then service_check rows;
  if List.mem "service" explicit then service_bench ~clients rows;
  if List.mem "aigcheck" explicit then aig_check ();
  if List.mem "aig" explicit then aig_bench ();
  (* JSON snapshot only on explicit request: it is a CI artifact, not part
     of the default figure/table regeneration. *)
  if List.mem "bench" explicit then bench_json ?sim_seed ?sim_words rows
