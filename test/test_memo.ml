(* The dividend scheduler ({!Booldiv.Scheduler}) and its division memo.

   Memo soundness: a run with the memo enabled may skip an attempt only
   when the recorded failure is provably a replay, so the final network
   must be bit-identical to a memo-off run — same node names (the
   skipped attempts must replay their id burns), same covers, same
   literal totals — across random and planted circuits and both
   drivers. A deadline that has already passed must stop every method
   before it commits anything, and the sim-seed knob must steer the
   filter soundly. *)

module Network = Logic_network.Network
module Lit_count = Logic_network.Lit_count
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
   the differential suite the memo must survive. *)
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

let check_identical ~label ~reference on off =
  Alcotest.(check int)
    (label ^ ": literal totals")
    (Lit_count.factored off) (Lit_count.factored on);
  Alcotest.(check string)
    (label ^ ": networks bit-identical")
    (Network.to_string off) (Network.to_string on);
  Alcotest.(check bool)
    (label ^ ": result equivalent")
    true (Equiv.equivalent on reference)

(* Memo-on vs memo-off over the whole differential suite. [run] gets the
   use_memo flag and a counters record. Requires the memo to have
   actually skipped work somewhere across the suite, and to be
   completely inert when disabled. *)
let differential ~label run () =
  let hits_on = ref 0 and ticks_off = ref 0 in
  List.iter
    (fun (name, net) ->
      let on = Network.copy net and off = Network.copy net in
      let c_on = Counters.create () and c_off = Counters.create () in
      run ~use_memo:true ~counters:c_on on;
      run ~use_memo:false ~counters:c_off off;
      hits_on := !hits_on + Atomic.get c_on.Counters.memo_hits;
      ticks_off :=
        !ticks_off + Atomic.get c_off.Counters.memo_hits + Atomic.get c_off.Counters.memo_misses;
      check_identical
        ~label:(Printf.sprintf "%s/%s" label name)
        ~reference:net on off)
    (differential_nets ());
  Alcotest.(check bool) (label ^ ": memo hit at least once") true (!hits_on > 0);
  Alcotest.(check int) (label ^ ": memo inert when off") 0 !ticks_off

let resub_run ~use_memo ~counters net =
  ignore (Synth.Resub.run ~use_memo ~counters net)

let substitute_run ~use_memo ~counters net =
  let config = { Booldiv.Substitute.extended_config with use_memo } in
  ignore (Booldiv.Substitute.run ~config ~counters net)

(* The per-pass division trajectory must show the memo working: on a
   circuit where pass 1 commits rewrites, pass 2 re-proves quiescence
   with strictly fewer real attempts than a memo-off run needs. *)
let pass_trajectory () =
  let net = planted_profile 42 in
  let run use_memo =
    let scratch = Network.copy net in
    let counters = Counters.create () in
    ignore (Synth.Resub.run ~use_memo ~counters scratch);
    counters
  in
  let c_on = run true and c_off = run false in
  Alcotest.(check bool) "multiple passes ran" true (Atomic.get c_on.Counters.passes >= 2);
  Alcotest.(check int)
    "same pass count either way" (Atomic.get c_off.Counters.passes) (Atomic.get c_on.Counters.passes);
  let late l = match l with [] -> [] | _ :: tl -> tl in
  let sum = List.fold_left ( + ) 0 in
  Alcotest.(check bool)
    "later passes attempt fewer divisions with the memo" true
    (sum (late c_on.Counters.pass_divisions)
    < sum (late c_off.Counters.pass_divisions)
    || sum (late c_off.Counters.pass_divisions) = 0);
  Alcotest.(check bool) "memo hit on later passes" true
    (Atomic.get c_on.Counters.memo_hits > 0)

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
          Alcotest.test_case "resub memo on/off" `Quick
            (differential ~label:"resub" resub_run);
          Alcotest.test_case "substitute ext memo on/off" `Quick
            (differential ~label:"ext" substitute_run);
        ] );
      ( "trajectory",
        [
          Alcotest.test_case "per-pass divisions drop" `Quick pass_trajectory;
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
