(* Tests for the utility library: RNG determinism and distribution
   sanity, table rendering, stopwatch, budgets, trace emission and
   linting, counter exception-safety. *)

module Rng = Rar_util.Rng
module Text_table = Rar_util.Text_table
module Budget = Rar_util.Budget
module Trace = Rar_util.Trace
module Counters = Rar_util.Counters

let test_rng_deterministic () =
  let stream seed = List.init 16 (fun _ -> Rng.int64 (Rng.create seed)) in
  (* Fresh generators with the same seed agree... *)
  let a = Rng.create 42 and b = Rng.create 42 in
  for i = 0 to 63 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d" i)
      (Rng.int64 a) (Rng.int64 b)
  done;
  (* ... and different seeds diverge. *)
  Alcotest.(check bool) "seeds differ" true (stream 1 <> stream 2)

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 1.0)
  done

let test_rng_distribution () =
  (* Coarse uniformity: every bucket of [0,8) hit a reasonable number of
     times over 8000 draws. *)
  let rng = Rng.create 11 in
  let counts = Array.make 8 0 in
  for _ = 1 to 8000 do
    let v = Rng.int rng 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d balanced (%d)" i c)
        true
        (c > 700 && c < 1300))
    counts

let test_rng_copy_and_split () =
  let rng = Rng.create 3 in
  ignore (Rng.int64 rng);
  let copy = Rng.copy rng in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 rng)
    (Rng.int64 copy);
  let split = Rng.split rng in
  Alcotest.(check bool) "split diverges" true (Rng.int64 rng <> Rng.int64 split)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 5 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

let test_table_render () =
  let t =
    Text_table.create
      [ ("name", Text_table.Left); ("value", Text_table.Right) ]
  in
  Text_table.add_row t [ "alpha"; "1" ];
  Text_table.add_separator t;
  Text_table.add_row t [ "b"; "22" ];
  let rendered = Text_table.render t in
  let lines = String.split_on_char '\n' rendered in
  (* Header + rule + 3 rows + trailing empty line. *)
  Alcotest.(check int) "line count" 6 (List.length lines);
  (* All non-empty lines are equally wide. *)
  let widths =
    List.filter_map
      (fun l -> if l = "" then None else Some (String.length l))
      lines
  in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths);
  Alcotest.(check bool) "right alignment pads left" true
    (let last = List.nth lines 4 in
     String.length last > 0
     &&
     (* value column of "b"/"22" row ends with "22 |" *)
     String.sub last (String.length last - 4) 4 = "22 |")

let test_table_arity_check () =
  let t = Text_table.create [ ("a", Text_table.Left) ] in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Text_table.add_row: wrong number of cells") (fun () ->
      Text_table.add_row t [ "x"; "y" ])

let test_stopwatch () =
  let result, elapsed = Rar_util.Stopwatch.time (fun () -> 21 * 2) in
  Alcotest.(check int) "result" 42 result;
  Alcotest.(check bool) "non-negative time" true (elapsed >= 0.0);
  Alcotest.(check string) "format" "0.13"
    (Rar_util.Stopwatch.seconds_to_string 0.129)

(* ------------------------------------------------------------------ *)
(* Budget                                                              *)
(* ------------------------------------------------------------------ *)

let test_budget_fuel () =
  let b = Budget.create ~fuel:3 () in
  Budget.spend b;
  Budget.spend b;
  Budget.spend b;
  Alcotest.(check bool) "not yet exhausted" true (Budget.exhausted b = None);
  (match Budget.spend b with
  | () -> Alcotest.fail "expected Exhausted Fuel"
  | exception Budget.Exhausted Budget.Fuel -> ()
  | exception Budget.Exhausted Budget.Deadline ->
    Alcotest.fail "wrong exhaustion reason");
  (* Sticky: every later probe reports the same reason without raising
     from check/exhausted, and spend keeps raising. *)
  Alcotest.(check bool) "sticky exhausted" true
    (Budget.exhausted b = Some Budget.Fuel);
  Alcotest.(check bool) "sticky check" true
    (Budget.check b = Error Budget.Fuel);
  (match Budget.spend b with
  | () -> Alcotest.fail "spend after exhaustion must keep raising"
  | exception Budget.Exhausted Budget.Fuel -> ())

let test_budget_cost_and_unlimited () =
  let b = Budget.create ~fuel:10 () in
  Budget.spend ~cost:10 b;
  (match Budget.spend b with
  | () -> Alcotest.fail "cost accounting missed the limit"
  | exception Budget.Exhausted Budget.Fuel -> ());
  Alcotest.(check bool) "unlimited flag" true
    (Budget.is_unlimited Budget.unlimited);
  (* The shared constant must survive heavy spending unchanged. *)
  for _ = 1 to 10_000 do
    Budget.spend Budget.unlimited
  done;
  Alcotest.(check bool) "unlimited never exhausts" true
    (Budget.exhausted Budget.unlimited = None)

let test_budget_deadline () =
  (* A deadline in the past: spend may tolerate up to a poll interval,
     but check forces a clock read and must report Deadline, stickily. *)
  let b = Budget.create ~deadline_at:(Unix.gettimeofday () -. 1.0) () in
  Alcotest.(check bool) "check sees passed deadline" true
    (Budget.check b = Error Budget.Deadline);
  Alcotest.(check bool) "deadline sticky" true
    (Budget.exhausted b = Some Budget.Deadline);
  Alcotest.(check string) "reason spelling" "deadline"
    (Budget.reason_to_string Budget.Deadline);
  Alcotest.(check string) "reason spelling" "fuel"
    (Budget.reason_to_string Budget.Fuel)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let read_lines path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | line -> loop (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  loop []

let with_trace_file f =
  let path = Filename.temp_file "test_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let trace = Trace.to_file path in
  Fun.protect ~finally:(fun () -> Trace.close trace) @@ fun () ->
  f trace;
  Trace.close trace;
  read_lines path

let test_trace_emit_well_formed () =
  let lines =
    with_trace_file (fun trace ->
        Alcotest.(check bool) "enabled" true (Trace.enabled trace);
        Trace.emit trace "alpha"
          [
            ("n", Trace.Int 3);
            ("x", Trace.Float 1.5);
            ("s", Trace.String "quo\"te\\back\nline");
            ("ok", Trace.Bool true);
            ("raw", Trace.Raw {|{"nested": [1, 2]}|});
          ];
        Trace.emit trace "beta" [])
  in
  Alcotest.(check int) "line count" 2 (List.length lines);
  List.iter
    (fun line ->
      match Trace.lint line with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (Printf.sprintf "lint: %s in %s" msg line))
    lines;
  let first = List.hd lines in
  Alcotest.(check bool) "event name first" true
    (String.length first > 18
    && String.sub first 0 18 = {|{"event": "alpha",|})

let test_trace_span_records_raise () =
  let lines =
    with_trace_file (fun trace ->
        match
          Trace.span trace "work" ~fields:[ ("k", Trace.Int 1) ] (fun () ->
              failwith "inner")
        with
        | () -> Alcotest.fail "span swallowed the exception"
        | exception Failure msg ->
          Alcotest.(check string) "exception preserved" "inner" msg)
  in
  Alcotest.(check int) "start + stop" 2 (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check bool) ("lint " ^ line) true (Trace.lint line = Ok ()))
    lines;
  let stop = List.nth lines 1 in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "stop event" true (contains {|"work.stop"|} stop);
  Alcotest.(check bool) "raised flag" true (contains {|"raised": true|} stop);
  Alcotest.(check bool) "duration present" true (contains {|"seconds"|} stop)

let test_trace_disabled_and_closed () =
  Alcotest.(check bool) "disabled" false (Trace.enabled Trace.disabled);
  (* All operations on the disabled sink are no-ops, including close. *)
  Trace.emit Trace.disabled "x" [];
  Alcotest.(check int) "span runs thunk" 7
    (Trace.span Trace.disabled "x" (fun () -> 7));
  Trace.close Trace.disabled;
  let path = Filename.temp_file "test_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let trace = Trace.to_file path in
  Trace.emit trace "before" [];
  Trace.close trace;
  Trace.close trace;
  (* After close the sink behaves like disabled: no write, no crash. *)
  Alcotest.(check bool) "closed = disabled" false (Trace.enabled trace);
  Trace.emit trace "after" [];
  Alcotest.(check int) "only pre-close line" 1 (List.length (read_lines path))

let test_trace_lint () =
  let ok s = Alcotest.(check bool) ("accepts " ^ s) true (Trace.lint s = Ok ()) in
  let bad s =
    match Trace.lint s with
    | Ok () -> Alcotest.fail ("lint accepted malformed: " ^ s)
    | Error _ -> ()
  in
  ok {|{}|};
  ok {|{"event": "x", "t": 1.5, "n": -3, "b": [true, false, null]}|};
  ok {|{"s": "esc \" \\ \n A", "nested": {"a": [1e3, 0.5]}}|};
  bad "";
  bad "   ";
  bad {|[1, 2]|} (* top level must be an object *);
  bad {|{"a": }|};
  bad {|{"a": 1,}|};
  bad {|{"a": 1} trailing|};
  bad {|{'a': 1}|};
  bad {|{"a": 01}|};
  bad {|{"unterminated": "x|};
  bad {|{"a": 1|}

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let test_counters_timed_exception_safe () =
  let c = Counters.create () in
  (match
     Counters.timed c `Division (fun () ->
         ignore (Sys.opaque_identity (List.init 1000 Fun.id));
         failwith "division blew up")
   with
  | () -> Alcotest.fail "timed swallowed the exception"
  | exception Failure msg ->
    Alcotest.(check string) "exception preserved" "division blew up" msg);
  Alcotest.(check bool) "time recorded despite raise" true
    (Atomic.get c.Counters.division_seconds >= 0.0);
  let before = Atomic.get c.Counters.validation_seconds in
  Alcotest.(check int) "result passthrough" 5
    (Counters.timed c `Validate (fun () -> 5));
  Alcotest.(check bool) "validation bucket" true
    (Atomic.get c.Counters.validation_seconds >= before)

let test_counters_degradations_accumulate () =
  let a = Counters.create () and b = Counters.create () in
  Counters.add a.Counters.degradations 2;
  Counters.add b.Counters.degradations 3;
  Counters.add b.Counters.substitutions 1;
  Counters.accumulate a b;
  Alcotest.(check int) "degradations folded" 5
    (Atomic.get a.Counters.degradations);
  Alcotest.(check int) "substitutions folded" 1
    (Atomic.get a.Counters.substitutions);
  (* The counters snapshot embedded in traces must itself lint. *)
  Alcotest.(check bool) "to_json lints" true (Trace.lint (Counters.to_json a) = Ok ())

(* Domain-safety: 8 domains hammering ONE record must lose no update. *)
let test_counters_domain_safe () =
  let c = Counters.create () in
  let domains = 8 and per_domain = 10_000 in
  let spawned =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Counters.add c.Counters.pairs_considered 1;
              Counters.add c.Counters.divisions_attempted 2;
              Counters.add_seconds c.Counters.division_seconds 0.5
            done))
  in
  List.iter Domain.join spawned;
  Alcotest.(check int) "no lost increments" (domains * per_domain)
    (Atomic.get c.Counters.pairs_considered);
  Alcotest.(check int) "no lost adds"
    (2 * domains * per_domain)
    (Atomic.get c.Counters.divisions_attempted);
  Alcotest.(check (float 1e-6)) "no lost float adds"
    (0.5 *. float_of_int (domains * per_domain))
    (Atomic.get c.Counters.division_seconds)

(* ------------------------------------------------------------------ *)
(* Stopwatch percentiles                                               *)
(* ------------------------------------------------------------------ *)

let feq = Alcotest.float 1e-9

let test_stopwatch_percentile () =
  let samples = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let p q = Rar_util.Stopwatch.percentile samples q in
  Alcotest.check feq "p0 is the min" 1.0 (p 0.0);
  Alcotest.check feq "p100 is the max" 100.0 (p 100.0);
  Alcotest.check feq "p50 interpolates" 50.5 (p 50.0);
  Alcotest.check feq "p99" 99.01 (p 99.0);
  (* Linear interpolation between closest ranks. *)
  Alcotest.check feq "quarter point" 12.5
    (Rar_util.Stopwatch.percentile [| 10.0; 20.0 |] 25.0);
  (* The input need not be sorted and is not mutated. *)
  let unsorted = [| 3.0; 1.0; 2.0 |] in
  Alcotest.check feq "unsorted input" 2.0
    (Rar_util.Stopwatch.percentile unsorted 50.0);
  Alcotest.(check bool) "input untouched" true (unsorted = [| 3.0; 1.0; 2.0 |]);
  (* Out-of-range p clamps; an empty sample is a caller bug. *)
  Alcotest.check feq "clamp low" 1.0 (p (-10.0));
  Alcotest.check feq "clamp high" 100.0 (p 1000.0);
  (match Rar_util.Stopwatch.percentile [||] 50.0 with
  | _ -> Alcotest.fail "empty sample accepted"
  | exception Invalid_argument _ -> ())

let test_stopwatch_summary () =
  (* Empty samples summarise to None — reporting code must not crash on
     a round that recorded zero jobs. *)
  Alcotest.(check bool)
    "empty sample is None" true
    (Rar_util.Stopwatch.summarize [||] = None);
  let s =
    match
      Rar_util.Stopwatch.summarize (Array.init 10 (fun i -> float_of_int i))
    with
    | Some s -> s
    | None -> Alcotest.fail "non-empty sample summarised to None"
  in
  Alcotest.(check int) "count" 10 s.Rar_util.Stopwatch.count;
  Alcotest.check feq "min" 0.0 s.Rar_util.Stopwatch.min;
  Alcotest.check feq "max" 9.0 s.Rar_util.Stopwatch.max;
  Alcotest.check feq "mean" 4.5 s.Rar_util.Stopwatch.mean;
  Alcotest.check feq "p50" 4.5 s.Rar_util.Stopwatch.p50;
  (* The JSON rendering must itself pass the trace lint. *)
  Alcotest.(check bool)
    "summary JSON lints" true
    (Trace.lint (Rar_util.Stopwatch.summary_to_json s) = Ok ())

(* ------------------------------------------------------------------ *)
(* Pool submit/drain (the daemon's scheduler path)                     *)
(* ------------------------------------------------------------------ *)

let test_pool_submit_drain () =
  List.iter
    (fun jobs ->
      let tag m = Printf.sprintf "jobs=%d: %s" jobs m in
      let pool = Rar_util.Pool.create ~jobs in
      let counter = Atomic.make 0 in
      for _ = 1 to 200 do
        Rar_util.Pool.submit pool (fun () -> Atomic.incr counter)
      done;
      Rar_util.Pool.drain pool;
      Alcotest.(check int) (tag "all submitted tasks ran") 200
        (Atomic.get counter);
      (* The pool is reusable after a drain. *)
      Rar_util.Pool.submit pool (fun () -> Atomic.incr counter);
      Rar_util.Pool.drain pool;
      Alcotest.(check int) (tag "reused after drain") 201
        (Atomic.get counter);
      (* An escaping exception is parked, re-raised by drain, and the
         pool survives it. *)
      Rar_util.Pool.submit pool (fun () -> failwith "boom");
      (match Rar_util.Pool.drain pool with
      | () -> Alcotest.fail (tag "drain swallowed the exception")
      | exception Failure m -> Alcotest.(check string) (tag "message") "boom" m);
      Rar_util.Pool.submit pool (fun () -> Atomic.incr counter);
      Rar_util.Pool.drain pool;
      Alcotest.(check int) (tag "pool survives a raise") 202
        (Atomic.get counter);
      Rar_util.Pool.shutdown pool)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Trace field extraction (per-job timeline reconstruction)            *)
(* ------------------------------------------------------------------ *)

let test_trace_fields_of_line () =
  (match
     Trace.fields_of_line
       {|{"event": "job_done", "job": 3, "seconds": 0.25, "ok": true, "c": {"a": 1}}|}
   with
  | None -> Alcotest.fail "well-formed line rejected"
  | Some fields ->
    let assoc k = List.assoc k fields in
    Alcotest.(check bool) "event" true (assoc "event" = `String "job_done");
    Alcotest.(check bool) "job id" true (assoc "job" = `Int 3);
    Alcotest.(check bool) "seconds" true (assoc "seconds" = `Float 0.25);
    Alcotest.(check bool) "bool passthrough" true (assoc "ok" = `Other "true");
    Alcotest.(check bool) "nested opaque" true (assoc "c" = `Nested);
    Alcotest.(check (list string))
      "order preserved"
      [ "event"; "job"; "seconds"; "ok"; "c" ]
      (List.map fst fields));
  Alcotest.(check bool)
    "malformed line yields None" true
    (Trace.fields_of_line {|{"a": }|} = None)

(* A raising task must never wedge the pool: the queue keeps draining,
   one parked exception reaches [drain], and the same pool keeps serving
   afterwards — exercised at the machine's full domain count, where a
   missed completion signal would deadlock [drain]. *)
exception Task_failed of int

let test_pool_raise_no_hang () =
  let jobs = max 2 (Rar_util.Pool.default_jobs ()) in
  let pool = Rar_util.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Rar_util.Pool.shutdown pool) @@ fun () ->
  let ran = Atomic.make 0 in
  (* Every task raising is the worst case for completion accounting. *)
  for i = 1 to 4 * jobs do
    Rar_util.Pool.submit pool (fun () ->
        Atomic.incr ran;
        raise (Task_failed i))
  done;
  (match Rar_util.Pool.drain pool with
  | () -> Alcotest.fail "expected Task_failed"
  | exception Task_failed _ -> ());
  Alcotest.(check int) "every raising task ran" (4 * jobs) (Atomic.get ran);
  (* The parked exception was consumed, and the pool still works. *)
  Rar_util.Pool.drain pool;
  for _ = 1 to 2 * jobs do
    Rar_util.Pool.submit pool (fun () -> Atomic.incr ran)
  done;
  Rar_util.Pool.drain pool;
  Alcotest.(check int) "pool reusable after exceptions" (6 * jobs)
    (Atomic.get ran)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "distribution" `Quick test_rng_distribution;
          Alcotest.test_case "copy and split" `Quick test_rng_copy_and_split;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity_check;
        ] );
      ( "stopwatch",
        [
          Alcotest.test_case "time" `Quick test_stopwatch;
          Alcotest.test_case "percentile" `Quick test_stopwatch_percentile;
          Alcotest.test_case "summary" `Quick test_stopwatch_summary;
        ] );
      ( "pool",
        [
          Alcotest.test_case "submit/drain" `Quick test_pool_submit_drain;
          Alcotest.test_case "raising tasks at jobs max" `Quick
            test_pool_raise_no_hang;
        ] );
      ( "budget",
        [
          Alcotest.test_case "fuel + sticky" `Quick test_budget_fuel;
          Alcotest.test_case "cost + unlimited" `Quick
            test_budget_cost_and_unlimited;
          Alcotest.test_case "deadline" `Quick test_budget_deadline;
        ] );
      ( "trace",
        [
          Alcotest.test_case "emit well-formed" `Quick
            test_trace_emit_well_formed;
          Alcotest.test_case "span records raise" `Quick
            test_trace_span_records_raise;
          Alcotest.test_case "disabled and closed" `Quick
            test_trace_disabled_and_closed;
          Alcotest.test_case "lint accepts/rejects" `Quick test_trace_lint;
          Alcotest.test_case "fields of line" `Quick test_trace_fields_of_line;
        ] );
      ( "counters",
        [
          Alcotest.test_case "timed exception-safe" `Quick
            test_counters_timed_exception_safe;
          Alcotest.test_case "degradations accumulate" `Quick
            test_counters_degradations_accumulate;
          Alcotest.test_case "8-domain hammer loses nothing" `Quick
            test_counters_domain_safe;
        ] );
    ]
