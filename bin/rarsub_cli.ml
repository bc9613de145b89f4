(* rarsub: Boolean division and substitution from the command line.

   Subcommands:
     list                          available circuits
     show  (-c NAME | -f FILE)     print a circuit and its statistics
     optimize (-c NAME | -f FILE)  run a script + resubstitution method
     optimize-aig -f FILE          the same, window by window over an AIG
     client --socket PATH          submit an optimize job to rarsubd
*)

module Network = Logic_network.Network
module Lit_count = Logic_network.Lit_count
module Blif = Logic_network.Blif
module Dont_care = Logic_network.Dont_care
module Suite = Bench_suite.Suite
module Script = Synth.Script
module Job = Rar_service.Job
module Protocol = Rar_service.Protocol
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Circuit loading                                                     *)
(* ------------------------------------------------------------------ *)

(* [Error (exit_code, message)]: 1 for usage mistakes, 2 for unreadable
   or malformed circuit files (parse errors carry file:line: positions). *)
let read path parse =
  try Ok (parse path) with
  | Blif.Parse_error { line; message }
  | Logic_network.Aiger.Parse_error { line; message } ->
    Error (2, Printf.sprintf "%s:%d: %s" path line message)
  | Sys_error msg -> Error (2, msg)

(* A circuit and its external don't-care view: the inline [.exdc]
   section of a BLIF file (named suite circuits carry none), with the
   cubes and EXOEC pairs of an [--exdc FILE] merged in. *)
let load ~circuit ~file ~exdc =
  let base =
    match (circuit, file) with
    | Some _, Some _ ->
      Error (1, "pass either a circuit name or a BLIF file, not both")
    | None, None -> Error (1, "pass a circuit name (-c) or a BLIF file (-f)")
    | Some name, None -> (
      match Suite.find name with
      | Some row -> Ok (Suite.build row, Dont_care.create ())
      | None -> (
        match List.assoc_opt name Bench_suite.Circuits.all with
        | Some builder -> Ok (builder (), Dont_care.create ())
        | None ->
          Error
            (1, Printf.sprintf "unknown circuit %S (try 'rarsub list')" name)))
    | None, Some path -> read path Blif.read_file_dc
  in
  match (base, exdc) with
  | Ok (net, dc), Some path ->
    Result.map
      (fun extra -> Dont_care.merge dc extra; (net, dc))
      (read path (Blif.read_exdc_file net))
  | base, _ -> base

(* Print the verdict of checking [after] against [before] (modulo [dc]
   when given); a mismatch prints a counterexample and exits 2. *)
let verify ?dc before after =
  let result, label =
    match dc with
    | None -> (Logic_sim.Equiv.check before after, "equivalence check")
    | Some dc ->
      ( Logic_sim.Equiv.check_dc dc before after,
        "equivalence check (modulo DC)" )
  in
  match result with
  | Logic_sim.Equiv.Equivalent -> Printf.printf "%s: pass\n" label
  | Logic_sim.Equiv.Counterexample { output; assignment } ->
    Printf.printf "%s: FAIL\n" label;
    Printf.printf "counterexample: output %s differs under %s\n" output
      (String.concat " "
         (List.map
            (fun (name, v) -> Printf.sprintf "%s=%d" name (if v then 1 else 0))
            assignment));
    exit 2

(* Run [f] on the [--trace] sink; an unopenable trace file exits 2. *)
let with_trace trace_file f =
  match Rar_util.Trace.with_file trace_file f with
  | Ok code -> code
  | Error msg ->
    prerr_endline msg;
    2

let report_filter request counters =
  if Atomic.get counters.Rar_util.Counters.pairs_considered > 0 then
    Printf.printf "divisor filter (%s): %s\n"
      (if request.Protocol.use_filter then "on" else "off")
      (Rar_util.Counters.to_string counters)

(* ------------------------------------------------------------------ *)
(* Shared flags                                                        *)
(* ------------------------------------------------------------------ *)

let circuit_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "c"; "circuit" ] ~docv:"NAME" ~doc:"Benchmark circuit name.")

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Read the circuit from a BLIF file.")

let exdc_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "exdc" ] ~docv:"FILE"
        ~doc:
          "Read an external don't-care view (a BLIF $(b,.exdc) section) \
           from $(docv), merged with any inline section of the circuit \
           file. EXCDC cubes become forbidden input patterns for the \
           Boolean methods and mask the divisor filter; $(b,--verify) \
           checks modulo the view.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write structured JSON-lines trace events (phase spans, \
           per-unit timings, degradations, counter snapshots) to \
           $(docv). No overhead when absent.")

let output_arg format =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:(Printf.sprintf "Write the result as %s to $(docv)." format))

let verify_flag =
  Arg.(
    value & flag
    & info [ "verify" ] ~doc:"Equivalence-check the result (exit 2 on failure).")

let verbose_term =
  let set verbose =
    if verbose then begin
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level (Some Logs.Debug)
    end
  in
  Term.(
    const set
    $ Arg.(
        value & flag
        & info [ "v"; "verbose" ] ~doc:"Log every committed substitution."))

(* Exact-match names: a prefix never selects a script or method, so
   every entry point (and the daemon) accepts the same spellings. *)
let name_conv names =
  Arg.conv'
    ( (fun s ->
        if List.mem s names then Ok s
        else
          Error
            (Printf.sprintf "invalid value '%s', expected %s" s
               (Arg.doc_alts ~quoted:true names))),
      Format.pp_print_string )

(* The job flags of optimize, optimize-aig and client, read into the
   wire request and resolved by [Job.spec_of_request] — the one place a
   job's names and settings are interpreted. [methods] are the method
   spellings the subcommand accepts. *)
let job_term methods =
  let names = List.map fst methods in
  let request script meth no_filter sim_seed sim_words fault_budget deadline =
    let request =
      {
        (Protocol.default_request ~blif:"") with
        script;
        meth;
        use_filter = not no_filter;
        sim_seed = Some sim_seed;
        sim_words = Some sim_words;
        fault_budget;
        deadline;
      }
    in
    Result.map (fun spec -> (request, spec)) (Job.spec_of_request request)
  in
  let scripts = List.map fst Script.scripts in
  Term.(
    term_result'
      (const request
      $ Arg.(
          value
          & opt (name_conv scripts) "a"
          & info [ "s"; "script" ] ~docv:"SCRIPT"
              ~doc:("Starting script: " ^ doc_alts scripts ^ "."))
      $ Arg.(
          value
          & opt (name_conv names) "ext"
          & info [ "m"; "method" ] ~docv:"METHOD"
              ~doc:
                ("Resubstitution method: " ^ doc_alts names
               ^ ". $(b,resub) is the algebraic method, like $(b,sis)."))
      $ Arg.(
          value & flag
          & info [ "no-filter" ]
              ~doc:
                "Disable the simulation-signature divisor filter \
                 (seed-style exhaustive candidate ranking) for A/B \
                 comparisons.")
      $ Arg.(
          value
          & opt int Logic_sim.Signature.default_seed
          & info [ "sim-seed" ] ~docv:"SEED"
              ~doc:"RNG seed for the simulation-signature divisor filter.")
      $ Arg.(
          value
          & opt int Logic_sim.Signature.default_words
          & info [ "sim-words" ] ~docv:"N"
              ~doc:
                "Signature vector size in 64-bit words (8 = 512 bits). \
                 Larger vectors make the signature engines more \
                 discriminating at more simulation cost per node.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "fault-budget" ] ~docv:"N"
              ~doc:
                "Cap the implication steps each division attempt may \
                 spend. Exhausted attempts degrade to their algebraic \
                 result instead of running on; the run always completes.")
      $ Arg.(
          value
          & opt (some float) None
          & info [ "deadline" ] ~docv:"SECONDS"
              ~doc:
                "Soft wall-clock limit for the resubstitution phase, \
                 counted from its start. Work still pending when it \
                 passes is skipped (degraded), never aborted; the result \
                 so far is still written. Deadline jobs are never served \
                 from or stored into the daemon's result cache.")))

(* ------------------------------------------------------------------ *)
(* list                                                                *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    print_endline "benchmark rows (synthetic stand-ins unless noted):";
    List.iter
      (fun row ->
        let kind =
          match row.Suite.source with
          | Suite.Embedded _ -> "embedded"
          | Suite.Synthetic _ -> "synthetic"
        in
        Printf.printf "  %-14s (%s)\n" row.Suite.name kind)
      Suite.rows;
    print_endline "embedded circuits:";
    List.iter
      (fun (name, _) -> Printf.printf "  %s\n" name)
      Bench_suite.Circuits.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available circuits.")
    Term.(const (fun () -> run (); 0) $ const ())

(* ------------------------------------------------------------------ *)
(* show                                                                *)
(* ------------------------------------------------------------------ *)

let show_cmd =
  let run circuit file dump_blif =
    match load ~circuit ~file ~exdc:None with
    | Error (code, msg) ->
      prerr_endline msg;
      code
    | Ok (net, _) ->
      if dump_blif then print_string (Logic_network.Blif.to_string net)
      else begin
        print_string (Network.to_string net);
        Printf.printf
          "\nnodes: %d   inputs: %d   outputs: %d\n\
           literals: %d flat, %d factored\n"
          (Network.node_count net)
          (List.length (Network.inputs net))
          (List.length (Network.outputs net))
          (Lit_count.flat net) (Lit_count.factored net)
      end;
      0
  in
  let blif_flag =
    Arg.(value & flag & info [ "blif" ] ~doc:"Dump as BLIF instead of equations.")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a circuit and its statistics.")
    Term.(const run $ circuit_arg $ file_arg $ blif_flag)

(* ------------------------------------------------------------------ *)
(* optimize                                                            *)
(* ------------------------------------------------------------------ *)

(* The job runs through [Job.run] and [Job.serialise], the code the
   daemon executes; a named circuit keeps its in-memory network rather
   than a BLIF round trip. *)
let optimize_cmd =
  let run () circuit file exdc (request, spec) trace_file output verify_result
      =
    match load ~circuit ~file ~exdc with
    | Error (code, msg) ->
      prerr_endline msg;
      code
    | Ok (net, dc) ->
      let dc = if Dont_care.is_empty dc then None else Some dc in
      with_trace trace_file @@ fun trace ->
      let original = Network.copy net in
      let counters = Rar_util.Counters.create () in
      Option.iter
        (fun dc ->
          Printf.printf
            "external don't cares: %d EXCDC cube(s), %d EXOEC pair(s)\n"
            (List.length (Dont_care.excdc dc))
            (List.length (Dont_care.exoec dc)))
        dc;
      Printf.printf "initial: %d factored literals\n" (Lit_count.factored net);
      let resub_start = ref 0.0 in
      let on_script net seconds =
        if request.Protocol.script <> "none" then
          Printf.printf "after script %s: %d literals (%.2fs)\n"
            request.script (Lit_count.factored net) seconds;
        resub_start := Unix.gettimeofday ()
      in
      Job.run ~trace ~counters ?dc ~on_script spec net;
      Printf.printf "after %s: %d literals (%.2fs)\n" request.meth
        (Lit_count.factored net)
        (Unix.gettimeofday () -. !resub_start);
      report_filter request counters;
      if verify_result then verify ?dc original net;
      Option.iter
        (fun path ->
          Out_channel.with_open_text path (fun oc ->
              output_string oc (Job.serialise ?dc net));
          Printf.printf "written to %s\n" path)
        output;
      0
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Optimise a circuit with a script and a method.")
    Term.(
      const run $ verbose_term $ circuit_arg $ file_arg $ exdc_arg
      $ job_term Script.method_names
      $ trace_arg $ output_arg "BLIF" $ verify_flag)

(* ------------------------------------------------------------------ *)
(* optimize-aig                                                        *)
(* ------------------------------------------------------------------ *)

(* Windowed resubstitution over an ASCII-AIGER circuit: the same
   scripts and resubstitution methods as [optimize], run per
   fanin-bounded window of the AIG (Synth.Aig_opt) so
   tens-of-thousands-of-gate benchmarks fit. Exit codes follow
   [optimize]: 1 usage, 2 unreadable input or failed verification. *)
let optimize_aig_cmd =
  let methods =
    List.filter_map
      (function name, Script.Method m -> Some (name, m) | _ -> None)
      Script.method_names
  in
  let run () file exdc (request, spec) max_window max_leaves trace_file
      output verify_result =
    let loaded =
      Result.bind (read file Logic_network.Aiger.read_file) @@ fun aig ->
      (* The view is resolved against a shell network holding just the
         AIG's input names: [.exdc] cubes are over primary inputs, which
         is all the per-window projection ever looks at. *)
      match exdc with
      | None -> Ok (aig, None)
      | Some path ->
        let shell = Network.create () in
        List.iter
          (fun (name, _) -> ignore (Network.add_input shell name))
          (Logic_network.Aig.inputs aig);
        Result.map
          (fun dc -> (aig, if Dont_care.is_empty dc then None else Some dc))
          (read path (Blif.read_exdc_file shell))
    in
    match loaded with
    | Error (code, msg) ->
      prerr_endline msg;
      code
    | Ok (aig, dc) ->
      with_trace trace_file @@ fun trace ->
      let counters = Rar_util.Counters.create () in
      let config =
        {
          Synth.Aig_opt.default_config with
          Synth.Aig_opt.script =
            List.assoc request.Protocol.script Script.scripts;
          meth = List.assoc request.meth methods;
          settings = Job.anchored spec;
          max_gates = max_window;
          max_leaves;
          dc;
        }
      in
      Option.iter
        (fun dc ->
          Printf.printf "external don't cares: %d EXCDC cube(s)\n"
            (List.length (Dont_care.excdc dc)))
        dc;
      Printf.printf "initial: %d gates, %d inputs\n"
        (Logic_network.Aig.num_ands aig)
        (Logic_network.Aig.num_inputs aig);
      let (optimised, stats), seconds =
        Rar_util.Stopwatch.time (fun () ->
            Synth.Aig_opt.optimize ~config ~trace ~counters aig)
      in
      Printf.printf
        "after %s/%s: %d gates (%.2fs)\n\
         windows: %d   accepted: %d   reverted: %d   skipped: %d\n"
        request.script request.meth stats.Synth.Aig_opt.gates_after seconds
        stats.Synth.Aig_opt.windows stats.Synth.Aig_opt.accepted
        stats.Synth.Aig_opt.reverted stats.Synth.Aig_opt.skipped;
      report_filter request counters;
      if verify_result then
        verify ?dc
          (Logic_network.Aig.to_network aig)
          (Logic_network.Aig.to_network optimised);
      Option.iter
        (fun path ->
          Logic_network.Aiger.write_file path optimised;
          Printf.printf "written to %s\n" path)
        output;
      0
  in
  let file_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "f"; "file" ] ~docv:"FILE"
          ~doc:"Read the circuit from an ASCII-AIGER ($(b,.aag)) file.")
  in
  let max_window_arg =
    Arg.(
      value
      & opt int Synth.Aig_opt.default_config.Synth.Aig_opt.max_gates
      & info [ "max-window" ] ~docv:"N"
          ~doc:"Gate cap per optimisation window.")
  in
  let max_leaves_arg =
    Arg.(
      value
      & opt int Synth.Aig_opt.default_config.Synth.Aig_opt.max_leaves
      & info [ "max-leaves" ] ~docv:"N"
          ~doc:"Leaf (window input) cap per optimisation window.")
  in
  Cmd.v
    (Cmd.info "optimize-aig"
       ~doc:"Optimise an ASCII-AIGER circuit window by window.")
    Term.(
      const run $ verbose_term $ file_arg $ exdc_arg $ job_term methods
      $ max_window_arg $ max_leaves_arg $ trace_arg $ output_arg "ASCII AIGER"
      $ verify_flag)

(* ------------------------------------------------------------------ *)
(* client                                                              *)
(* ------------------------------------------------------------------ *)

(* Submit one job to a running rarsubd and print the optimised BLIF on
   stdout (stderr carries the summary, so stdout pipes clean). The
   request carries the optimize job flags. The reply is byte-identical
   to [rarsub optimize -f F -o] where F holds the bytes the client sent
   (with [--exdc] merged in). Those are stdin's bytes, or
   [Blif.to_string] of a [-c]/[-f] circuit, which is not byte-identical
   to [optimize -c]: the BLIF writer adds one buffer node per output
   (b9: 56 -> 76 nodes). *)
let client_cmd =
  let run socket circuit file exdc (request, _) no_cache timeout output =
    let blif =
      (* Inline [.exdc] sections ride along in the body (the daemon
         splits them back out); an [--exdc FILE] travels verbatim in the
         request's [exdc] field and is merged daemon-side. *)
      match (circuit, file) with
      | None, None -> Ok (In_channel.input_all stdin)
      | _ ->
        Result.map
          (fun (net, dc) -> Blif.to_string_dc net dc)
          (load ~circuit ~file ~exdc:None)
    in
    let exdc_text =
      match exdc with
      | None -> Ok None
      | Some path ->
        read path (fun p ->
            Some (In_channel.with_open_bin p In_channel.input_all))
    in
    match (blif, exdc_text) with
    | Error (code, msg), _ | _, Error (code, msg) ->
      prerr_endline msg;
      code
    | Ok blif, Ok exdc -> (
      let request =
        { request with Protocol.blif; use_cache = not no_cache; exdc }
      in
      match Rar_service.Server.Client.round_trip ?timeout ~socket request with
      | exception Rar_service.Server.Client.Timeout ->
        prerr_endline "rarsub client: timed out waiting for the daemon";
        3
      | exception Unix.Unix_error (err, _, _) ->
        Printf.eprintf "rarsub client: %s: %s\n" socket
          (Unix.error_message err);
        3
      | exception Protocol.Frame_error msg ->
        (* A daemon that vanished mid-session (SIGPIPE is ignored in
           [Client.connect]; EPIPE surfaces here as a [Frame_error])
           is reported like a malformed input, not a signal death. *)
        Printf.eprintf "rarsub client: %s: %s\n" socket msg;
        2
      | Protocol.Refused message ->
        Printf.eprintf "rarsub client: refused: %s\n" message;
        2
      | Protocol.Result { blif; literals; cache_hit; _ } ->
        Printf.eprintf "literals: %d (%s)\n" literals
          (if cache_hit then "cache hit" else "cache miss");
        (match output with
        | Some path ->
          Out_channel.with_open_text path (fun oc -> output_string oc blif)
        | None -> print_string blif);
        0)
  in
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"The rarsubd Unix-domain socket.")
  in
  let no_cache_flag =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Bypass the daemon's result cache for this job.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Give up if the daemon has not replied within $(docv).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Submit a job to a running rarsubd (reads BLIF from stdin unless \
          $(b,-c)/$(b,-f) is given).")
    Term.(
      const run $ socket_arg $ circuit_arg $ file_arg $ exdc_arg
      $ job_term Script.method_names
      $ no_cache_flag $ timeout_arg $ output_arg "BLIF")

let () =
  let info =
    Cmd.info "rarsub" ~version:"1.0.0"
      ~doc:"Boolean division and substitution via redundancy addition and removal."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ list_cmd; show_cmd; optimize_cmd; optimize_aig_cmd; client_cmd ]))
