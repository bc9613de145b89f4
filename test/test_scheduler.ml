(* The dividend scheduler ({!Booldiv.Scheduler}) under its drivers.

   Every driver's result must stay equivalent to its input across
   random and planted circuits; runs sharing one counters record tally
   by pass; a deadline that has already passed must stop every method
   before it commits anything; and the sim-seed knob must steer the
   filter soundly. *)

module Network = Logic_network.Network
module Generator = Bench_suite.Generator
module Equiv = Logic_sim.Equiv
module Counters = Rar_util.Counters

let planted_profile seed =
  Generator.planted ~seed
    {
      Generator.inputs = 8;
      noise_nodes = 6;
      algebraic_plants = 2;
      boolean_plants = 2;
      gdc_plants = 1;
      outputs = 4;
    }

(* 44 unstructured random circuits of varying shape plus 8 planted ones:
   the differential suite every driver must survive. *)
let differential_nets () =
  List.concat
    [
      List.map
        (fun seed ->
          ( Printf.sprintf "random-%d" seed,
            Generator.random ~seed ~n_inputs:5 ~n_nodes:10 ~n_outputs:3 () ))
        (List.init 15 (fun i -> i + 1));
      List.map
        (fun seed ->
          ( Printf.sprintf "random-wide-%d" seed,
            Generator.random ~seed ~n_inputs:8 ~n_nodes:16 ~n_outputs:5 () ))
        (List.init 15 (fun i -> i + 100));
      List.map
        (fun seed ->
          ( Printf.sprintf "random-deep-%d" seed,
            Generator.random ~seed ~n_inputs:4 ~n_nodes:20 ~n_outputs:2 () ))
        (List.init 14 (fun i -> i + 200));
      List.map
        (fun seed -> (Printf.sprintf "planted-%d" seed, planted_profile seed))
        (List.init 8 (fun i -> i + 300));
    ]

(* Each driver over the whole differential suite: every result must be
   equivalent to its input. *)
let differential ~label run () =
  List.iter
    (fun (name, net) ->
      let result = Network.copy net in
      run result;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: result equivalent" label name)
        true (Equiv.equivalent result net))
    (differential_nets ())

let resub_run net = ignore (Synth.Resub.run net)

let substitute_run net =
  ignore
    (Booldiv.Substitute.run ~config:Booldiv.Substitute.extended_config net)

(* Runs that share one record (the windows of [Aig_opt], for one) tally
   pass [i] into entry [i]: the shared list equals accumulating
   separate records, never outgrows [max_passes], and [passes] stays
   the sum of every run's passes. *)
let shared_tally () =
  let config = Booldiv.Substitute.extended_config in
  let nets = [ planted_profile 42; planted_profile 43; planted_profile 44 ] in
  let shared = Counters.create () and merged = Counters.create () in
  let sum_passes = ref 0 in
  List.iter
    (fun net ->
      ignore (Booldiv.Substitute.run ~config ~counters:shared (Network.copy net));
      let own = Counters.create () in
      ignore (Booldiv.Substitute.run ~config ~counters:own (Network.copy net));
      sum_passes := !sum_passes + Atomic.get own.Counters.passes;
      Counters.accumulate merged own)
    nets;
  Alcotest.(check (list int))
    "shared tally = accumulated records" merged.Counters.pass_divisions
    shared.Counters.pass_divisions;
  Alcotest.(check bool)
    "at most max_passes entries" true
    (List.length shared.Counters.pass_divisions
    <= config.Booldiv.Substitute.max_passes);
  Alcotest.(check bool) "several runs took more than one pass" true
    (!sum_passes > List.length nets);
  Alcotest.(check int) "passes is the sum" !sum_passes
    (Atomic.get shared.Counters.passes)

(* The deadline is polled before every pass and every dividend, so one
   that has already passed leaves the input untouched — whatever the
   method — and is reported as a degradation. *)
let passed_deadline meth () =
  let row = Option.get (Bench_suite.Suite.find "b9") in
  let net = Bench_suite.Suite.build row in
  Synth.Script.run net Synth.Script.script_a;
  let before = Network.to_string net in
  let counters = Counters.create () in
  let t0 = Unix.gettimeofday () in
  Synth.Script.resub_command
    ~settings:
      { Synth.Script.default_settings with deadline_at = Some (t0 -. 1.0) }
    ~counters meth net;
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "returns promptly (%.3fs)" elapsed)
    true (elapsed < 1.0);
  Alcotest.(check string) "network byte-identical" before
    (Network.to_string net);
  Alcotest.(check int) "nothing committed" 0
    (Atomic.get counters.Counters.substitutions);
  Alcotest.(check bool) "degradation tallied" true
    (Atomic.get counters.Counters.degradations >= 1)

(* The sim-seed knob must actually steer the filter: whatever it selects,
   results stay equivalent, and the default equals the documented seed. *)
let sim_seed_soundness () =
  List.iter
    (fun (name, net) ->
      let with_seed seed =
        let scratch = Network.copy net in
        ignore
          (Booldiv.Substitute.run
             ~config:
               { Booldiv.Substitute.extended_config with sim_seed = seed }
             scratch);
        scratch
      in
      let default = with_seed Logic_sim.Signature.default_seed in
      let other = with_seed 0xBAD5EED in
      Alcotest.(check bool)
        (name ^ ": default-seed result equivalent")
        true
        (Equiv.equivalent default net);
      Alcotest.(check bool)
        (name ^ ": alternate-seed result equivalent")
        true
        (Equiv.equivalent other net))
    (List.concat
       [
         List.map
           (fun seed ->
             ( Printf.sprintf "random-%d" seed,
               Generator.random ~seed ~n_inputs:7 ~n_nodes:14 ~n_outputs:4 ()
             ))
           [ 1; 2; 3 ];
         List.map
           (fun seed -> (Printf.sprintf "planted-%d" seed, planted_profile seed))
           [ 11; 12 ];
       ])

let () =
  Alcotest.run "scheduler"
    [
      ( "differential",
        [
          Alcotest.test_case "resub equivalent to input" `Quick
            (differential ~label:"resub" resub_run);
          Alcotest.test_case "substitute ext equivalent to input" `Quick
            (differential ~label:"ext" substitute_run);
        ] );
      ( "trajectory",
        [
          Alcotest.test_case "shared record tallies by pass" `Quick shared_tally;
        ] );
      ( "deadline",
        List.map
          (fun (name, meth) ->
            Alcotest.test_case (name ^ " past deadline")
              `Quick (passed_deadline meth))
          Synth.Script.resub_methods );
      ( "sim-seed",
        [ Alcotest.test_case "seed steers filter soundly" `Quick
            sim_seed_soundness ] );
    ]
