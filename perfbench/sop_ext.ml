(* sop-ext: the CLI path in-process, parse -> script A -> ext -> write,
   over seeded planted circuits of one suite profile. *)

module Blif = Logic_network.Blif
module Aig = Logic_network.Aig
module Lit_count = Logic_network.Lit_count
module Counters = Rar_util.Counters
module Trace = Rar_util.Trace
module Script = Synth.Script

(* One round: two networks from each of the suite's 9sym-sized profiles
   (the 9sym, b9, c8 and f51m rows), drawn with fresh planted seeds. Per
   circuit, ext time varies by about 30% between seeds, so a run needs
   many circuits of one size for its throughput and latency percentiles
   to be steady. A round takes about [round_seconds] on a 2-core x86-64
   host. *)
let mix = List.concat (List.init 2 (fun _ -> [ "9sym"; "b9"; "c8"; "f51m" ]))

let round_seconds = 4.4

let profile name =
  match Bench_suite.Suite.find name with
  | Some { Bench_suite.Suite.source = Bench_suite.Suite.Synthetic p; _ } -> p
  | _ -> invalid_arg ("sop-ext: no synthetic suite row " ^ name)

let inputs (ctx : Report.ctx) =
  let rounds = Report.rounds ctx ~round_seconds in
  let rng = Random.State.make [| ctx.seed; 0x50e |] in
  List.concat_map
    (fun _ ->
      List.map
        (fun name ->
          let planted_seed = Random.State.bits rng in
          Blif.to_string
            (Bench_suite.Generator.planted ~seed:planted_seed (profile name)))
        mix)
    (List.init rounds Fun.id)
  |> Array.of_list

(* One timed pass over the inputs, each item bracketed by calibration
   probes. Returns the output bytes ([None] for an item that raised),
   the per-pass ledger and counters, the raw timed wall (the items'
   summed wall, probes excluded), the items' speed factors, and the
   factored literals handed to resub. *)
type pass = {
  outputs : string option array;
  ledger : Ledger.t;
  counters : Counters.t;
  wall : float;
  factors : float array;
  lits_after_script : int;
}

let run_pass ?(trace = Trace.disabled) inputs =
  let ledger = Ledger.create () in
  let counters = Counters.create () in
  let lits_after_script = ref 0 in
  let outputs, factors =
    Calibrate.bracket
      (fun bytes ->
        let id, close = Ledger.root ledger "item" in
        let time name f = Ledger.time ledger ~parent:id name f in
        let result =
          match
            let net = time "blif.parse" (fun () -> Blif.parse bytes) in
            time "script" (fun () -> Script.run ~trace net Script.script_a);
            if Trace.enabled trace then
              time "bench.count" (fun () ->
                  lits_after_script :=
                    !lits_after_script + Lit_count.factored net);
            time "resub" (fun () ->
                Script.resub_command ~trace ~counters Script.Ext net);
            time "blif.write" (fun () -> Blif.to_string net)
          with
          | out -> Some out
          | exception _ -> None
        in
        close ();
        result)
      inputs
  in
  let wall = Ledger.total ledger "item" in
  { outputs; ledger; counters; wall; factors;
    lits_after_script = !lits_after_script }

(* Warm-up for set-up time: the whole path once on a small embedded
   circuit. *)
let warm_up () =
  let bytes = Blif.to_string (Bench_suite.Circuits.alu_slice ()) in
  let net = Blif.parse bytes in
  Script.run net Script.script_a;
  Script.resub_command Script.Ext net;
  ignore (Blif.to_string net)

let aig_gates net = Aig.num_ands (Aig.of_network net)

let run (ctx : Report.ctx) =
  let inputs, setup =
    Report.repeat_setup 3 (fun () ->
        let inputs = inputs ctx in
        warm_up ();
        inputs)
  in
  let plain = run_pass inputs in
  let rss_mb = Report.peak_rss_mb "self" in
  let traced_pass =
    if ctx.traced then begin
      let path = Filename.concat ctx.work_dir "trace-sop-ext.jsonl" in
      let trace = Trace.to_file path in
      let pass =
        Fun.protect ~finally:(fun () -> Trace.close trace) (fun () ->
            run_pass ~trace inputs)
      in
      Ledger.write pass.ledger (Filename.concat ctx.work_dir "spans-sop-ext.jsonl");
      Some pass
    end
    else None
  in
  (* Checks and sizes, outside the timed region. *)
  let tally = Check.tally () in
  let lits_in = ref 0 and gates_in = ref 0 in
  let lits_out = ref 0 and gates_out = ref 0 in
  Array.iteri
    (fun k bytes ->
      let reference = Blif.parse bytes in
      lits_in := !lits_in + Lit_count.factored reference;
      gates_in := !gates_in + aig_gates reference;
      match Option.map Blif.parse plain.outputs.(k) with
      | Some result ->
        lits_out := !lits_out + Lit_count.factored result;
        gates_out := !gates_out + aig_gates result;
        Check.sop tally reference result
      | None | (exception _) -> Check.fail tally)
    inputs;
  Printf.printf "sop-ext: %d circuits, checks: %s\n" (Array.length inputs)
    (Check.summary tally);
  let raw_latencies = Ledger.durations plain.ledger "item" in
  let latencies = Calibrate.at_nominal ~factors:plain.factors raw_latencies in
  let totals =
    {
      Report.items = Array.length inputs;
      failed = tally.Check.failed;
      wall = Report.sum latencies;
      raw_wall = plain.wall;
      speed_factor = Calibrate.mean plain.factors;
      latencies;
      raw_latencies;
      lits_in = !lits_in;
      gates_in = !gates_in;
      lits_out = !lits_out;
      gates_out = !gates_out;
      setup;
      rss_mb;
    }
  in
  let counts p =
    [ ("resub.divisions", Atomic.get p.counters.Counters.divisions_attempted) ]
  in
  let exact =
    [ ("literals_out", !lits_out); ("gates_out", !gates_out) ] @ counts plain
  in
  match traced_pass with
  | None -> { Report.totals; layers = []; exact; mismatches = [] }
  | Some p ->
    let total = Ledger.total p.ledger in
    let layer_s =
      total "blif.parse" +. total "script" +. total "resub"
      +. total "blif.write" +. total "bench.count"
    in
    let layers =
      [
        ("blif.parse_s", total "blif.parse");
        ("blif.write_s", total "blif.write");
        ("script.s", total "script");
        ("script.lits_after", float_of_int p.lits_after_script);
      ]
      @ Report.resub_layers ~resub_s:(total "resub") p.counters
      @ [
          ("ledger.unaccounted_share", Report.ratio (p.wall -. layer_s) p.wall);
          ( "trace.overhead_ratio",
            Report.ratio
              (Report.sum
                 (Calibrate.at_nominal ~factors:p.factors
                    (Array.map2 ( -. )
                       (Ledger.durations p.ledger "item")
                       (Ledger.durations p.ledger "bench.count"))))
              (Report.sum latencies) );
        ]
    in
    let mismatches =
      (if p.outputs <> plain.outputs then
         [ "sop-ext: outputs differ between the traced and untraced pass" ]
       else [])
      @ Report.compare_counts "sop-ext" ~plain:(counts plain) ~traced:(counts p)
    in
    { Report.totals; layers; exact; mismatches }
