(* Every metric the benchmark prints, with its unit, in the order of
   BENCHMARK.json. A workload that bypasses a layer reports that
   layer's metrics as 0. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
    ("ok_share", "ratio");
    ("sop_lits_per_s", "lits/s");
    ("literals_out", "lits");
    ("aig_gates_per_s", "gates/s");
    ("gates_out", "gates");
    ("jobs_per_s", "jobs/s");
    ("job_latency_p50_ms", "ms");
    ("job_latency_tail_ms", "ms");
  ]

let outcomes =
  [ "accepted"; "no_gain"; "unchanged"; "cycle"; "too_small"; "cover_blowup";
    "verify_failed" ]

let per_layer =
  [
    ("blif.parse_s", "s");
    ("blif.write_s", "s");
    ("aiger.parse_s", "s");
    ("aiger.write_s", "s");
    ("script.s", "s");
    ("script.lits_after", "lits");
    ("resub.s", "s");
    ("resub.divisions", "count");
    ("resub.substitutions", "count");
    ("resub.commit_ratio", "ratio");
    ("resub.passes", "count");
    ("filter.s", "s");
    ("filter.pruned_ratio", "ratio");
    ("division.s", "s");
    ("memo.hit_ratio", "ratio");
    ("imply.resets", "count");
    ("imply.checkpoints", "count");
    ("aig_opt.s", "s");
    ("aig_opt.windows", "count");
    ("aig_opt.accept_ratio", "ratio");
    ("aig_opt.ms_per_window", "ms");
    ("aig_opt.division_share", "ratio");
    ("aig_opt.window_p50_ms", "ms");
    ("aig_opt.wasted_window_share", "ratio");
  ]
  @ List.map (fun o -> ("aig_opt.outcome." ^ o, "count")) outcomes
  @ [
      ("cache.hit_ratio", "ratio");
      ("job.hit_latency_p50_ms", "ms");
      ("job.miss_latency_p50_ms", "ms");
      ("job.warm_miss_latency_p50_ms", "ms");
      ("server.queue_wait_p50_ms", "ms");
      ("server.exec_p50_ms", "ms");
      ("server.default_workers_wall_ratio", "ratio");
      ("cache.entries", "count");
      ("cache.evictions", "count");
      ("kresub.construct_s", "s");
      ("kresub.validate_s", "s");
      ("kresub.validated_ratio", "ratio");
      ("sis.divisions", "count");
      ("ledger.unaccounted_share", "ratio");
      ("trace.overhead_ratio", "ratio");
    ]
