(* aig-window: parse -> Aig_opt.optimize (default config) -> write over
   seeded random AIGs of 250 gates and 48 inputs. *)

module Aig = Logic_network.Aig
module Aiger = Logic_network.Aiger
module Lit_count = Logic_network.Lit_count
module Counters = Rar_util.Counters
module Trace = Rar_util.Trace
module Aig_opt = Synth.Aig_opt

let n_inputs = 48

(* Small AIGs, so that a run has enough of them for a steady median and
   tail and each is short enough for the probes around it to catch the
   host's speed. Each still has about a hundred windows. *)
let n_gates = 250

(* One AIG of this shape takes about [round_seconds] on a 2-core
   x86-64 host. *)
let round_seconds = 1.25

let inputs (ctx : Report.ctx) =
  let rounds = Report.rounds ctx ~round_seconds in
  let rng = Random.State.make [| ctx.seed; 0xa16 |] in
  Array.init rounds (fun _ ->
      let seed = Random.State.bits rng in
      Aiger.to_string
        (Bench_suite.Generator.random_aig ~seed ~n_inputs ~n_gates ()))

type pass = {
  outputs : string option array;
  stats : Aig_opt.stats list;
  ledger : Ledger.t;
  counters : Counters.t;
  wall : float;  (** the items' summed raw wall, probes excluded *)
  factors : float array;  (** per-item host speed factors *)
}

let run_pass ?(trace = Trace.disabled) inputs =
  let ledger = Ledger.create () in
  let counters = Counters.create () in
  let stats = ref [] in
  let outputs, factors =
    Calibrate.bracket
      (fun bytes ->
        let id, close = Ledger.root ledger "item" in
        let time name f = Ledger.time ledger ~parent:id name f in
        let result =
          match
            let aig = time "aiger.parse" (fun () -> Aiger.parse bytes) in
            let opt, s =
              time "aig_opt" (fun () -> Aig_opt.optimize ~trace ~counters aig)
            in
            stats := s :: !stats;
            time "aiger.write" (fun () -> Aiger.to_string opt)
          with
          | out -> Some out
          | exception _ -> None
        in
        close ();
        result)
      inputs
  in
  let wall = Ledger.total ledger "item" in
  { outputs; stats = List.rev !stats; ledger; counters; wall; factors }

let warm_up () =
  let aig =
    Bench_suite.Generator.random_aig ~seed:1 ~n_inputs:8 ~n_gates:40 ()
  in
  let opt, _ = Aig_opt.optimize (Aiger.parse (Aiger.to_string aig)) in
  ignore (Aiger.to_string opt)

(* Per-window wall time from the [aig_window] events: each window ends
   at its event and starts where the previous one (or the enclosing
   [Aig_opt.optimize] call) ended. *)
let windows ledger events =
  let windows = Events.named events "aig_window" in
  List.concat_map
    (fun span ->
      let inside =
        List.filter
          (fun w ->
            let t = Events.float w "t" in
            t >= span.Ledger.start && t <= span.Ledger.stop)
          windows
      in
      let _, timed =
        List.fold_left
          (fun (prev, acc) w ->
            let t = Events.float w "t" in
            (t, (Events.string w "outcome", t -. prev) :: acc))
          (span.Ledger.start, []) inside
      in
      List.rev timed)
    (Ledger.named ledger "aig_opt")

let counts p =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 p.stats in
  [
    ("resub.divisions", Atomic.get p.counters.Counters.divisions_attempted);
    ("aig_opt.windows", sum (fun s -> s.Aig_opt.windows));
    ("aig_opt.accepted", sum (fun s -> s.Aig_opt.accepted));
    ("aig_opt.reverted", sum (fun s -> s.Aig_opt.reverted));
    ("aig_opt.skipped", sum (fun s -> s.Aig_opt.skipped));
  ]

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
      let path = Filename.concat ctx.work_dir "trace-aig-window.jsonl" in
      let trace = Trace.to_file path in
      let pass =
        Fun.protect ~finally:(fun () -> Trace.close trace) (fun () ->
            run_pass ~trace inputs)
      in
      Ledger.write pass.ledger
        (Filename.concat ctx.work_dir "spans-aig-window.jsonl");
      Some (pass, windows pass.ledger (Events.read path))
    end
    else None
  in
  let tally = Check.tally () in
  let lits_in = ref 0 and gates_in = ref 0 in
  let lits_out = ref 0 and gates_out = ref 0 in
  Array.iteri
    (fun k bytes ->
      let reference = Aiger.parse bytes in
      lits_in := !lits_in + Lit_count.factored (Aig.to_network reference);
      gates_in := !gates_in + Aig.num_ands reference;
      match Option.map Aiger.parse plain.outputs.(k) with
      | Some result ->
        lits_out := !lits_out + Lit_count.factored (Aig.to_network result);
        gates_out := !gates_out + Aig.num_ands result;
        Check.aig tally reference result
      | None | (exception _) -> Check.fail tally)
    inputs;
  Printf.printf "aig-window: %d AIGs of %d gates, checks: %s\n"
    (Array.length inputs) n_gates (Check.summary tally);
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
  let exact =
    [ ("literals_out", !lits_out); ("gates_out", !gates_out) ] @ counts plain
  in
  match traced_pass with
  | None -> { Report.totals; layers = []; exact; mismatches = [] }
  | Some (p, windows) ->
    let total = Ledger.total p.ledger in
    let aig_opt_s = total "aig_opt" in
    let n_windows = List.assoc "aig_opt.windows" (counts p) in
    let outcome o = List.length (List.filter (fun (w, _) -> w = o) windows) in
    let wasted =
      List.fold_left
        (fun acc (o, s) -> if o = "accepted" then acc else acc +. s)
        0.0 windows
    in
    let c = p.counters in
    let counter_s =
      Atomic.get c.Counters.filter_seconds
      +. Atomic.get c.Counters.division_seconds
      +. Atomic.get c.Counters.validation_seconds
    in
    let layer_s = total "aiger.parse" +. aig_opt_s +. total "aiger.write" in
    let layers =
      [
        ("aiger.parse_s", total "aiger.parse");
        ("aiger.write_s", total "aiger.write");
      ]
      @ Report.resub_layers ~resub_s:counter_s c
      @ [
          ("aig_opt.s", aig_opt_s);
          ("aig_opt.windows", float_of_int n_windows);
          ( "aig_opt.accept_ratio",
            Report.ratio_int (List.assoc "aig_opt.accepted" (counts p)) n_windows );
          ( "aig_opt.ms_per_window",
            1000.0 *. Report.ratio aig_opt_s (float_of_int n_windows) );
          ( "aig_opt.division_share",
            Report.ratio (Atomic.get c.Counters.division_seconds) aig_opt_s );
          ( "aig_opt.window_p50_ms",
            1000.0 *. Ledger.median (Array.of_list (List.map snd windows)) );
          ("aig_opt.wasted_window_share", Report.ratio wasted aig_opt_s);
        ]
      @ List.map
          (fun o -> ("aig_opt.outcome." ^ o, float_of_int (outcome o)))
          Names.outcomes
      @ [
          ("ledger.unaccounted_share", Report.ratio (p.wall -. layer_s) p.wall);
          ( "trace.overhead_ratio",
            Report.ratio
              (Report.sum
                 (Calibrate.at_nominal ~factors:p.factors
                    (Ledger.durations p.ledger "item")))
              (Report.sum latencies) );
        ]
    in
    let mismatches =
      (if p.outputs <> plain.outputs then
         [ "aig-window: outputs differ between the traced and untraced pass" ]
       else [])
      @ Report.compare_counts "aig-window" ~plain:(counts plain)
          ~traced:(counts p)
      @
      if List.length windows <> n_windows then
        [ Printf.sprintf "aig-window: %d aig_window events for %d windows"
            (List.length windows) n_windows ]
      else []
    in
    let exact =
      exact
      @ List.map (fun o -> ("aig_opt.outcome." ^ o, outcome o)) Names.outcomes
    in
    { Report.totals; layers; exact; mismatches }
