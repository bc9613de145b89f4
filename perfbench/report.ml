(* What [Perfbench] hands a workload, and what it hands back. *)

type ctx = {
  seed : int;
  seconds : float;  (** sizes the workload: rounds of about this long *)
  traced : bool;  (** also make a traced pass and report the layers *)
  work_dir : string;  (** trace, span and guard files *)
  rarsubd : string;  (** path of the daemon executable *)
}

let rounds ctx ~round_seconds =
  max 1 (Float.to_int (Float.round (ctx.seconds /. round_seconds)))

(* A metric by name; its unit is declared once, in [Names]. *)
type metric = string * float

type totals = {
  items : int;  (** items attempted in the timed region *)
  failed : int;  (** raised, refused, timed out or failed the check *)
  wall : float;  (** timed wall seconds at nominal host speed *)
  raw_wall : float;  (** timed wall seconds as measured *)
  speed_factor : float;  (** mean host speed factor ([Calibrate]) *)
  latencies : float array;  (** per-item wall seconds at nominal speed *)
  raw_latencies : float array;  (** per-item wall seconds as measured *)
  lits_in : int;  (** factored literals of the inputs *)
  gates_in : int;  (** AIG AND gates of the inputs *)
  lits_out : int;  (** factored literals of the outputs *)
  gates_out : int;  (** AIG AND gates of the outputs *)
  setup : float;  (** median set-up seconds *)
  rss_mb : float;  (** peak resident MiB of the synthesising process *)
}

type outcome = {
  totals : totals;
  layers : metric list;  (** per-layer metrics (traced runs only) *)
  exact : (string * int) list;  (** counts that must repeat exactly *)
  mismatches : string list;
      (** differences between the traced and the untraced pass *)
}

let ratio num den = if den = 0.0 then 0.0 else num /. den

let sum = Array.fold_left ( +. ) 0.0

let ratio_int num den = ratio (float_of_int num) (float_of_int den)

(* The end-to-end metrics, in BENCHMARK.json order. *)
let end_to_end t =
  let per_s n = float_of_int n /. t.wall in
  let lat = Ledger.latency t.latencies in
  [
    ("setup_s", t.setup);
    ("peak_rss_mb", t.rss_mb);
    ("ok_share", ratio_int (t.items - t.failed) t.items);
    ("sop_lits_per_s", per_s t.lits_in);
    ("literals_out", float_of_int t.lits_out);
    ("aig_gates_per_s", per_s t.gates_in);
    ("gates_out", float_of_int t.gates_out);
    ("jobs_per_s", per_s t.items);
    ("job_latency_p50_ms", 1000.0 *. lat.Ledger.p50);
    ("job_latency_tail_ms", 1000.0 *. lat.Ledger.tail);
  ]

let describe_tail t =
  let lat = Ledger.latency t.latencies in
  Printf.sprintf "job_latency_tail_ms is p%.2f of %d items (%d beyond it)"
    lat.Ledger.tail_pct (Array.length t.latencies) lat.Ledger.beyond

(* Peak resident set of a process ("self" or a pid), from
   /proc/<pid>/status. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> nan
          | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
          | _ -> scan ()
        in
        scan ())

(* Set-up is repeated, each time bracketed by host-speed probes, and
   its median at nominal speed reported, so one slow start does not
   move the figure. Returns the last run's value. *)
let repeat_setup times f =
  let runs, factors =
    Calibrate.bracket
      (fun () ->
        let t0 = Ledger.now () in
        let value = f () in
        (value, Ledger.now () -. t0))
      (Array.make times ())
  in
  ( fst runs.(times - 1),
    Ledger.median (Calibrate.at_nominal ~factors (Array.map snd runs)) )

(* The core/atpg/sim layer, read through the [Counters.t] that
   [Script.resub_command] fills. [resub_s] is the wall time spent in
   its calls, measured from outside where the benchmark makes them. *)
let resub_layers ~resub_s (c : Rar_util.Counters.t) =
  let i = Atomic.get in
  let count cell = float_of_int (i cell) in
  let divisions = i c.divisions_attempted in
  [
    ("resub.s", resub_s);
    ("resub.divisions", float_of_int divisions);
    ("resub.substitutions", count c.substitutions);
    ("resub.commit_ratio", ratio_int (i c.substitutions) divisions);
    ("resub.passes", count c.passes);
    ("filter.s", Atomic.get c.filter_seconds);
    ("filter.pruned_ratio", ratio_int (i c.pairs_filtered) (i c.pairs_considered));
    ("division.s", Atomic.get c.division_seconds);
    ( "memo.hit_ratio",
      ratio_int (i c.memo_hits) (i c.memo_hits + i c.memo_misses) );
    ("imply.resets", count c.imply_resets);
    ("imply.checkpoints", count c.imply_checkpoints);
  ]

(* Differences between the exact counts of two passes over the same
   inputs. *)
let compare_counts what ~plain ~traced =
  List.filter_map
    (fun (name, a) ->
      match List.assoc_opt name traced with
      | Some b when a = b -> None
      | Some b ->
        Some (Printf.sprintf "%s: %s is %d untraced, %d traced" what name a b)
      | None -> Some (Printf.sprintf "%s: %s missing from traced pass" what name))
    plain
