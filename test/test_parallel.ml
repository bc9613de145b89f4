(* The dividend scheduler ({!Booldiv.Scheduler}) under every method of
   {!Synth.Script.resub_methods}: with [jobs > 1], whole-dividend scans
   resolved in ascending id order must give networks bit-identical to a
   sequential run and equivalent to the original circuit; and a deadline
   that has already passed must stop every method before it commits
   anything. *)

module Network = Logic_network.Network
module Lit_count = Logic_network.Lit_count
module Generator = Bench_suite.Generator
module Equiv = Logic_sim.Equiv

let test_jobs = 4

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

let networks () =
  List.concat
    [
      List.map
        (fun seed ->
          ( Printf.sprintf "random-%d" seed,
            Generator.random ~seed ~n_inputs:7 ~n_nodes:14 ~n_outputs:4 () ))
        [ 1; 2; 3 ];
      List.map
        (fun seed -> (Printf.sprintf "planted-%d" seed, planted_profile seed))
        [ 11; 12 ];
    ]

let check_identical ~label ~reference seq par =
  Alcotest.(check int)
    (label ^ ": literal totals")
    (Lit_count.factored seq) (Lit_count.factored par);
  Alcotest.(check string)
    (label ^ ": networks bit-identical")
    (Network.to_string seq) (Network.to_string par);
  Alcotest.(check bool)
    (label ^ ": parallel result equivalent")
    true
    (Equiv.equivalent par reference)

let determinism meth () =
  List.iter
    (fun (name, net) ->
      let run jobs =
        let scratch = Network.copy net in
        let counters = Rar_util.Counters.create () in
        Synth.Script.resub_command
          ~settings:{ Synth.Script.default_settings with jobs }
          ~counters meth scratch;
        (scratch, Atomic.get counters.Rar_util.Counters.substitutions)
      in
      let seq, n_seq = run 1 and par, n_par = run test_jobs in
      Alcotest.(check int) (name ^ ": substitution counts") n_seq n_par;
      check_identical ~label:name ~reference:net seq par)
    (networks ())

(* The deadline is polled before every pass and every dividend, so one
   that has already passed leaves the input untouched — whatever the
   method — and is reported as a degradation. *)
let passed_deadline meth () =
  let row = Option.get (Bench_suite.Suite.find "b9") in
  let net = Bench_suite.Suite.build row in
  Synth.Script.run net Synth.Script.script_a;
  let before = Network.to_string net in
  let counters = Rar_util.Counters.create () in
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
    (Atomic.get counters.Rar_util.Counters.substitutions);
  Alcotest.(check bool) "degradation tallied" true
    (Atomic.get counters.Rar_util.Counters.degradations >= 1)

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
    (networks ())

(* The work pool itself: ordering, exception propagation, reuse. *)
let pool_basics () =
  let pool = Rar_util.Pool.create ~jobs:test_jobs in
  Fun.protect ~finally:(fun () -> Rar_util.Pool.shutdown pool) @@ fun () ->
  let results =
    Rar_util.Pool.run pool
      (List.init 40 (fun i () ->
           let acc = ref 0 in
           for k = 1 to 1000 + i do
             acc := !acc + k
           done;
           (i, !acc)))
  in
  List.iteri
    (fun i (j, sum) ->
      Alcotest.(check int) "result order" i j;
      Alcotest.(check int) "result value"
        ((1000 + i) * (1001 + i) / 2)
        sum)
    results;
  (* Batches can be re-run on the same pool. *)
  let again = Rar_util.Pool.run pool [ (fun () -> 42) ] in
  Alcotest.(check (list int)) "reuse" [ 42 ] again;
  (* An exception in one task is re-raised after the batch completes. *)
  match
    Rar_util.Pool.run pool
      [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ]
  with
  | _ -> Alcotest.fail "expected the task exception to propagate"
  | exception Failure msg -> Alcotest.(check string) "exn" "boom" msg

(* A raising task must never wedge the pool: the batch completes, the
   first (lowest-index) exception propagates, and the same pool keeps
   serving batches afterwards — exercised at the machine's full domain
   count, where a missed completion signal would deadlock [run]. *)
exception Task_failed of int

let pool_raise_no_hang () =
  let jobs = max 2 (Rar_util.Pool.default_jobs ()) in
  let pool = Rar_util.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Rar_util.Pool.shutdown pool) @@ fun () ->
  let batch_with_raises () =
    Rar_util.Pool.run pool
      (List.init (4 * jobs) (fun i () ->
           if i mod 3 = 1 then failwith (Printf.sprintf "task %d" i) else i))
  in
  (match batch_with_raises () with
  | _ -> Alcotest.fail "expected the task exception to propagate"
  | exception Failure msg ->
    Alcotest.(check string) "first exception wins" "task 1" msg);
  (* Every task raising is the worst case for completion accounting. *)
  (match
     Rar_util.Pool.run pool (List.init jobs (fun i () -> raise (Task_failed i)))
   with
  | _ -> Alcotest.fail "expected Task_failed"
  | exception Task_failed 0 -> ()
  | exception Task_failed i ->
    Alcotest.failf "lowest-index exception expected, got task %d" i);
  (* The pool is still fully functional. *)
  let results =
    Rar_util.Pool.run pool (List.init (2 * jobs) (fun i () -> i * i))
  in
  Alcotest.(check (list int))
    "pool reusable after exceptions"
    (List.init (2 * jobs) (fun i -> i * i))
    results

let () =
  Alcotest.run "parallel"
    [
      ( "determinism",
        List.map
          (fun (name, meth) ->
            Alcotest.test_case
              (Printf.sprintf "%s jobs:1 = jobs:%d" name test_jobs)
              `Slow (determinism meth))
          Synth.Script.resub_methods );
      ( "deadline",
        List.map
          (fun (name, meth) ->
            Alcotest.test_case (name ^ " past deadline")
              `Quick (passed_deadline meth))
          Synth.Script.resub_methods );
      ( "sim-seed",
        [ Alcotest.test_case "seed steers filter soundly" `Quick
            sim_seed_soundness ] );
      ( "pool",
        [
          Alcotest.test_case "order, reuse, exceptions" `Quick pool_basics;
          Alcotest.test_case "raising tasks at jobs max" `Quick
            pool_raise_no_hang;
        ] );
    ]
