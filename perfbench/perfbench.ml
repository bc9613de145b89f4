(* Benchmark entry point: one workload, one seed, one JSON result line.

   perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                 --work-dir DIR [--source-hash H] [--rarsubd PATH]

   Prints human-readable notes, then as its last line one JSON object
   with the keys correct, attempted, failed and metrics: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. Exits
   non-zero when any output check, the traced/untraced comparison or
   the exact-count guard fails. *)

let workloads =
  [
    ("sop-ext", Sop_ext.run);
    ("aig-window", Aig_window.run);
    ("daemon-mix", Daemon_mix.run);
  ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload (sop-ext|aig-window|daemon-mix) --seed N \
     --seconds S --trace 0|1 --work-dir DIR [--source-hash H] [--rarsubd \
     PATH]";
  exit 2

let args () =
  let rec go acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      go ((key, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get key = match List.assoc_opt key kv with Some v -> v | None -> usage () in
  let int key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
  ( get "--workload",
    int "--seed",
    int "--seconds",
    int "--trace" = 1,
    get "--work-dir",
    Option.value ~default:"none" (List.assoc_opt "--source-hash" kv),
    Option.value ~default:"rarsubd" (List.assoc_opt "--rarsubd" kv) )

(* Exact-count guard across runs: the first run of a (workload, seed,
   seconds, source) set records its counts; every later run of the set
   must reproduce each count it shares with the record. *)
let guard ~path counts =
  let recorded =
    match open_in path with
    | exception Sys_error _ -> []
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec read acc =
            match input_line ic with
            | exception End_of_file -> List.rev acc
            | line -> (
              match String.split_on_char ' ' line with
              | [ name; value ] -> read ((name, int_of_string value) :: acc)
              | _ -> read acc)
          in
          read [])
  in
  let problems =
    List.filter_map
      (fun (name, value) ->
        match List.assoc_opt name recorded with
        | Some v when v <> value ->
          Some
            (Printf.sprintf "guard: %s is %d, an earlier run of this set had %d"
               name value v)
        | _ -> None)
      counts
  in
  let merged =
    recorded
    @ List.filter (fun (name, _) -> not (List.mem_assoc name recorded)) counts
  in
  let oc = open_out path in
  List.iter (fun (name, value) -> Printf.fprintf oc "%s %d\n" name value) merged;
  close_out oc;
  problems

(* Traced runs of the in-process workloads must attribute the timed
   wall to the layer calls up to this share. On daemon-mix the
   remainder is client idle time and is only reported. *)
let ledger_tolerance = 0.05

let ledger_problems name outcome =
  match List.assoc_opt "ledger.unaccounted_share" outcome.Report.layers with
  | Some u when name <> "daemon-mix" && Float.abs u > ledger_tolerance ->
    [ Printf.sprintf "ledger: %.4f of the timed wall is outside the layers \
                      (tolerance %.2f)" u ledger_tolerance ]
  | _ -> []

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let name, seed, seconds, traced, work_dir, source_hash, rarsubd = args () in
  let run =
    match List.assoc_opt name workloads with Some run -> run | None -> usage ()
  in
  Printf.printf "workload %s, seed %d, %d s, trace %d, nproc %d\n%!" name seed
    seconds (Bool.to_int traced) (Domain.recommended_domain_count ());
  let outcome =
    run
      { Report.seed; seconds = float_of_int seconds; traced; work_dir; rarsubd }
  in
  let totals = outcome.Report.totals in
  let guard_path =
    Filename.concat work_dir
      (Printf.sprintf "counts-%s-%d-%d-%s.txt" name seed seconds source_hash)
  in
  let problems =
    outcome.Report.mismatches
    @ ledger_problems name outcome
    @ guard ~path:guard_path outcome.Report.exact
  in
  List.iter (fun (n, v) -> Printf.printf "exact %s = %d\n" n v) outcome.Report.exact;
  List.iter (fun p -> Printf.printf "FAILED %s\n" p) problems;
  Printf.printf "%s\n" (Report.describe_tail totals);
  let raw = Ledger.latency totals.Report.raw_latencies in
  Printf.printf
    "ledger: timed wall %.3f s over %d items, %.3f s at nominal host speed \
     (mean speed factor %.3f); as measured, p50 %.3f ms, tail %.3f ms\n"
    totals.Report.raw_wall totals.Report.items totals.Report.wall
    totals.Report.speed_factor (1000.0 *. raw.Ledger.p50)
    (1000.0 *. raw.Ledger.tail);
  let values =
    if traced then outcome.Report.layers else Report.end_to_end totals
  in
  let table = if traced then Names.per_layer else Names.end_to_end in
  let metrics =
    List.map
      (fun (metric, unit) ->
        let value = Option.value ~default:0.0 (List.assoc_opt metric values) in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" metric
          (json_number value) unit)
      table
  in
  let correct = totals.Report.failed = 0 && problems = [] in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct totals.Report.items totals.Report.failed
    (String.concat ", " metrics);
  exit (if correct then 0 else 1)
