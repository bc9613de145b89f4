(* daemon-mix: rarsubd in its own process, driven by a closed loop of
   [clients] connections sending a seeded stream of script-a requests
   over a small pool of planted circuits.

   The daemon runs with --jobs 1: one domain that reads requests and
   runs jobs. Its default worker count on a 2-core host also gives one
   job worker, but on a domain of its own beside the event loop, and
   that second domain made every miss slower and the run-to-run wall
   spread too wide to gate on. Traced runs replay the first segment on
   a default daemon and report the wall ratio
   ([server.default_workers_wall_ratio]). *)

module Blif = Logic_network.Blif
module Lit_count = Logic_network.Lit_count
module Counters = Rar_util.Counters
module Protocol = Rar_service.Protocol
module Client = Rar_service.Server.Client

(* Closed loop: each client waits for its reply before sending again.
   Two clients, as many as a 2-core host has cores. run.py pins the
   benchmark, the daemon and the clients to one CPU, so the probes
   measure the CPU they all run on. *)
let clients = 2

let methods = [ "resub"; "resub-k" ]

(* The pool: small suite profiles, drawn with fresh planted seeds. *)
let pool_rows = [ "9sym"; "b9"; "c8"; "f51m"; "alu2"; "frg1"; "term1"; "ttt2" ]

(* Every (circuit, method) pair is requested [copies] times: once as a
   miss, then as hits, so seven requests in eight are hits. With two
   clients sharing one executor, a hit that arrives during the other
   client's miss waits for it; at three hits in four the median fell on
   the boundary between fast and waiting hits and moved by 30% between
   runs. *)
let copies = 8

(* A round is one segment of [circuits_per_segment] circuits, served
   by a fresh daemon. A segment's three circuits fit the daemon's warm
   store of parsed networks (8), so hits take the warm path; each
   daemon start is one set-up sample, and each segment is one item for
   the host-speed probes ([Calibrate]). Segments of six circuits
   spread throughput by 7-10% over ten seeds; three, about 2 s each,
   let the probes follow the host's speed more closely. A round takes
   about [round_seconds] on a 2-core x86-64 host. *)
let circuits_per_segment = 3

let round_seconds = 2.0

type request = {
  circuit : int;
  meth : string;
  first : bool;  (** first request of its (circuit, method) pair *)
  warm : bool;  (** a first request whose circuit was requested before *)
}

type reply = {
  latency : float;
  response : (Protocol.response, string) result;
}

let workload (ctx : Report.ctx) =
  let rounds = Report.rounds ctx ~round_seconds in
  let rng = Random.State.make [| ctx.seed; 0xd43 |] in
  let n = rounds * circuits_per_segment in
  let blifs =
    Array.init n (fun i ->
        let name = List.nth pool_rows (i mod List.length pool_rows) in
        Blif.to_string
          (Bench_suite.Generator.planted ~seed:(Random.State.bits rng)
             (Sop_ext.profile name)))
  in
  (* Per segment: shuffle the copies, then mark each pair's first
     occurrence. *)
  let segment k =
    let circuits = List.init circuits_per_segment (fun i -> (k * circuits_per_segment) + i) in
    let stream =
      Array.of_list
        (List.concat_map
           (fun circuit ->
             List.concat_map
               (fun meth -> List.init copies (fun _ -> (circuit, meth)))
               methods)
           circuits)
    in
    for i = Array.length stream - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = stream.(i) in
      stream.(i) <- stream.(j);
      stream.(j) <- tmp
    done;
    let seen_pair = Hashtbl.create 64 and seen_circuit = Hashtbl.create 64 in
    Array.map
      (fun (circuit, meth) ->
        let first = not (Hashtbl.mem seen_pair (circuit, meth)) in
        let warm = first && Hashtbl.mem seen_circuit circuit in
        Hashtbl.replace seen_pair (circuit, meth) ();
        Hashtbl.replace seen_circuit circuit ();
        { circuit; meth; first; warm })
      stream
  in
  (blifs, List.init rounds segment)

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; socket : string }

(* [workers] is the daemon's --jobs; [None] keeps its default. *)
let launch (ctx : Report.ctx) ?trace ~workers name =
  let socket = Filename.concat ctx.work_dir (name ^ ".sock") in
  (try Sys.remove socket with Sys_error _ -> ());
  let log =
    Unix.openfile
      (Filename.concat ctx.work_dir (name ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [ ctx.rarsubd; "--socket"; socket ]
    @ (match workers with Some n -> [ "--jobs"; string_of_int n ] | None -> [])
    @ match trace with Some path -> [ "--trace"; path ] | None -> []
  in
  let pid =
    Unix.create_process ctx.rarsubd (Array.of_list args) devnull log log
  in
  Unix.close devnull;
  Unix.close log;
  { pid; socket }

(* Poll until the socket accepts a connection. *)
let await_ready d =
  let deadline = Ledger.now () +. 60.0 in
  let rec go () =
    match Client.connect ~timeout:5.0 d.socket with
    | conn -> Client.close conn
    | exception (Unix.Unix_error _ as e) ->
      (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _ -> failwith "daemon-mix: rarsubd exited during start-up");
      if Ledger.now () > deadline then raise e;
      Unix.sleepf 0.0002;
      go ()
  in
  go ()

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid)

(* Start a daemon; the seconds until its socket accepts. *)
let start ctx ?trace ~workers name =
  let t0 = Ledger.now () in
  let d = launch ctx ?trace ~workers name in
  (try await_ready d with e -> stop d; raise e);
  (d, Ledger.now () -. t0)

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

(* One client process: send its requests in order over one connection,
   each after the previous reply, and marshal (index, start, stop,
   response) back through [path]. *)
let client_process socket blifs requests mine path =
  let conn = Client.connect ~timeout:120.0 socket in
  let results =
    List.map
      (fun k ->
        let r = requests.(k) in
        let request =
          { (Protocol.default_request ~blif:blifs.(r.circuit)) with
            Protocol.meth = r.meth }
        in
        let t0 = Ledger.now () in
        let response =
          match Client.request conn request with
          | response -> Ok response
          | exception e -> Error (Printexc.to_string e)
        in
        (k, t0, Ledger.now (), response))
      mine
  in
  Client.close conn;
  let oc = open_out_bin path in
  Marshal.to_channel oc (results : (int * float * float * (Protocol.response, string) result) list) [];
  close_out oc

(* One segment on its own daemon: its replies, timed wall, the
   daemon's peak RSS and its start-up seconds. Each (circuit, method)
   pair belongs to one client, so a client sends a repeat only after
   its own first request of that pair has been answered: every repeat
   is a cache hit. Clients are processes, so their round trips do not
   share a runtime lock. *)
let run_segment ctx ?trace ?(workers = Some 1) ledger name blifs requests =
  let d, setup = start ctx ?trace ~workers name in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  let n = Array.length requests in
  let owner = Hashtbl.create 64 in
  let mine c =
    List.filter
      (fun k ->
        let r = requests.(k) in
        let key = (r.circuit, r.meth) in
        if not (Hashtbl.mem owner key) then
          Hashtbl.replace owner key (Hashtbl.length owner mod clients);
        Hashtbl.find owner key = c)
      (List.init n Fun.id)
  in
  let parts = List.init clients mine in
  let path c = Filename.concat ctx.Report.work_dir (Printf.sprintf "%s-client%d.bin" name c) in
  List.iteri (fun c _ -> try Sys.remove (path c) with Sys_error _ -> ()) parts;
  flush_all ();
  let t0 = Ledger.now () in
  let pids =
    List.mapi
      (fun c part ->
        match Unix.fork () with
        | 0 ->
          (try client_process d.socket blifs requests part (path c)
           with _ -> Unix._exit 3);
          Unix._exit 0
        | pid -> pid)
      parts
  in
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
  let wall = Ledger.now () -. t0 in
  let replies = Array.make n { latency = 0.0; response = Error "no reply" } in
  List.iteri
    (fun c _ ->
      match open_in_bin (path c) with
      | exception Sys_error _ -> ()
      | ic ->
        let results : (int * float * float * (Protocol.response, string) result) list =
          Marshal.from_channel ic
        in
        close_in ic;
        List.iter
          (fun (k, start, stop, response) ->
            ignore (Ledger.record ledger ~parent:(-1) "client.request" start stop);
            replies.(k) <- { latency = stop -. start; response })
          results)
    parts;
  (replies, wall, Report.peak_rss_mb (string_of_int d.pid), setup)

type pass = {
  replies : reply array;  (** in the order of the concatenated segments *)
  ledger : Ledger.t;
  wall : float;  (** raw, summed over segments *)
  segment_walls : float array;  (** raw *)
  factors : float array;  (** per-segment host speed factors *)
  request_factors : float array;  (** each request's segment's factor *)
  rss_mb : float;  (** the largest of the segments' daemons *)
  setups : float list;  (** daemon start-up seconds at nominal speed *)
  traces : string list;
}

(* The segments in order, each bracketed by calibration probes taken
   while no daemon or client runs. *)
let run_pass ctx ~traced blifs segments =
  let ledger = Ledger.create () in
  let segments = Array.of_list segments in
  let trace k =
    if traced then
      Some
        (Filename.concat ctx.Report.work_dir
           (Printf.sprintf "trace-daemon-mix-%d.jsonl" k))
    else None
  in
  let runs, factors =
    Calibrate.bracket
      (fun (k, requests) ->
        let name = Printf.sprintf "rarsubd-%s%d" (if traced then "t" else "") k in
        run_segment ctx ?trace:(trace k) ledger name blifs requests)
      (Array.mapi (fun k requests -> (k, requests)) segments)
  in
  let runs = Array.to_list runs in
  let segment_walls = Array.of_list (List.map (fun (_, w, _, _) -> w) runs) in
  {
    replies = Array.concat (List.map (fun (r, _, _, _) -> r) runs);
    ledger;
    wall = Report.sum segment_walls;
    segment_walls;
    factors;
    request_factors =
      Array.concat
        (Array.to_list
           (Array.mapi
              (fun k seg -> Array.make (Array.length seg) factors.(k))
              segments));
    rss_mb = List.fold_left (fun m (_, _, r, _) -> Float.max m r) 0.0 runs;
    setups =
      List.map2 (fun (_, _, _, s) f -> s /. f) runs (Array.to_list factors);
    traces = List.filter_map trace (List.init (Array.length segments) Fun.id);
  }

(* Per-request round trips at nominal host speed: each divided by its
   segment's factor. *)
let latencies_at_nominal p =
  Array.map2 (fun r f -> r.latency /. f) p.replies p.request_factors

(* Segment walls at nominal host speed. *)
let walls_at_nominal p = Calibrate.at_nominal ~factors:p.factors p.segment_walls

(* ------------------------------------------------------------------ *)
(* Reading the results                                                 *)
(* ------------------------------------------------------------------ *)

let cache_hit r =
  match r.response with
  | Ok (Protocol.Result { cache_hit; _ }) -> cache_hit
  | _ -> false

(* Sum the counters the misses' replies carry into one record: all
   misses, or those of one method. *)
let miss_counters ?meth requests p =
  let c = Counters.create () in
  Array.iteri
    (fun k r ->
      match p.replies.(k).response with
      | Ok (Protocol.Result { counters; cache_hit = false; _ })
        when Option.fold ~none:true ~some:(String.equal r.meth) meth -> (
        match Rar_util.Trace.fields_of_line counters with
        | None -> ()
        | Some fields ->
          let add cell key = Counters.add cell (Events.int fields key) in
          let add_s cell key =
            Counters.add_seconds cell (Events.float fields key)
          in
          add c.Counters.pairs_considered "pairs_considered";
          add c.Counters.pairs_filtered "pairs_filtered";
          add c.Counters.divisions_attempted "divisions_attempted";
          add c.Counters.substitutions "substitutions";
          add c.Counters.memo_hits "memo_hits";
          add c.Counters.memo_misses "memo_misses";
          add c.Counters.imply_resets "imply_resets";
          add c.Counters.imply_checkpoints "imply_checkpoints";
          add c.Counters.passes "passes";
          add c.Counters.kresub_candidates "kresub_candidates";
          add c.Counters.kresub_validated "kresub_validated";
          add_s c.Counters.filter_seconds "filter_seconds";
          add_s c.Counters.division_seconds "division_seconds";
          add_s c.Counters.validation_seconds "validation_seconds")
      | _ -> ())
    requests;
  c

(* An integer member of the nested cache object in [server_stats]. *)
let nested_int line key =
  let pattern = Printf.sprintf "\"%s\": " key in
  let plen = String.length pattern in
  let rec find i =
    if i + plen > String.length line then 0
    else if String.sub line i plen = pattern then
      Scanf.sscanf (String.sub line (i + plen) (String.length line - i - plen))
        "%d" Fun.id
    else find (i + 1)
  in
  find 0

(* Queue wait and execution time per job, from [job_queued] ->
   [job_done], and the cache size from the final [server_stats]. *)
let server_trace path =
  let events = Events.read path in
  let queued = Hashtbl.create 256 in
  List.iter
    (fun f -> Hashtbl.replace queued (Events.int f "job") (Events.float f "t"))
    (Events.named events "job_queued");
  let jobs =
    List.filter_map
      (fun f ->
        let exec = Events.float f "seconds" in
        match Hashtbl.find_opt queued (Events.int f "job") with
        | Some q -> Some (Events.float f "t" -. exec -. q, exec)
        | None -> None)
      (Events.named events "job_done")
  in
  let stats_line =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let rec last acc =
      match input_line ic with
      | exception End_of_file -> acc
      | line ->
        last
          (if String.starts_with ~prefix:"{\"event\": \"server_stats\"" line
           then line
           else acc)
    in
    last ""
  in
  (jobs, nested_int stats_line "entries", nested_int stats_line "evictions")

let server_layers paths =
  let traces = List.map server_trace paths in
  let jobs = List.concat_map (fun (j, _, _) -> j) traces in
  let sum f = float_of_int (List.fold_left (fun acc t -> acc + f t) 0 traces) in
  [
    ( "server.queue_wait_p50_ms",
      1000.0 *. Ledger.median (Array.of_list (List.map fst jobs)) );
    ( "server.exec_p50_ms",
      1000.0 *. Ledger.median (Array.of_list (List.map snd jobs)) );
    ("cache.entries", sum (fun (_, e, _) -> e));
    ("cache.evictions", sum (fun (_, _, e) -> e));
  ]

let run (ctx : Report.ctx) =
  let blifs, segments = workload ctx in
  let requests = Array.concat segments in
  let plain = run_pass ctx ~traced:false blifs segments in
  Printf.printf "daemon-mix: segment walls %s s\n"
    (String.concat " "
       (List.map (Printf.sprintf "%.3f") (Array.to_list plain.segment_walls)));
  let traced_pass =
    if ctx.traced then begin
      let p = run_pass ctx ~traced:true blifs segments in
      Ledger.write p.ledger (Filename.concat ctx.work_dir "spans-daemon-mix.jsonl");
      (* The first segment again on a daemon with its default worker
         count, to keep the cost of that configuration in view. *)
      let default_run, default_factors =
        Calibrate.bracket
          (run_segment ctx ~workers:None (Ledger.create ()) "rarsubd-default"
             blifs)
          [| List.hd segments |]
      in
      let default_replies, default_wall, _, _ = default_run.(0) in
      let layers =
        ( "server.default_workers_wall_ratio",
          Report.ratio
            (default_wall /. default_factors.(0))
            (walls_at_nominal plain).(0) )
        :: server_layers p.traces
      in
      Some (p, layers, default_replies)
    end
    else None
  in
  (* Checks and sizes, outside the timed region. *)
  let tally = Check.tally () in
  let inputs = Array.map Blif.parse blifs in
  let lits_of = Array.map Lit_count.factored inputs in
  let gates_of = Array.map Sop_ext.aig_gates inputs in
  let first_reply = Hashtbl.create 64 in
  let lits_in = ref 0 and gates_in = ref 0 in
  let lits_out = ref 0 and gates_out = ref 0 in
  (* [replies] answer a prefix of [requests]; only [plain]'s are
     counted in the output sizes. *)
  let check_replies ?(count = false) replies tally =
    Array.iteri
      (fun k reply ->
        let r = requests.(k) in
        let key = (r.circuit, r.meth) in
        match reply.response with
        | Ok (Protocol.Result { blif; literals; _ }) -> (
          match Hashtbl.find_opt first_reply key with
          | Some (bytes, gates) ->
            if not (String.equal bytes blif) then Check.fail tally
            else if count then begin
              lits_out := !lits_out + literals;
              gates_out := !gates_out + gates
            end
          | None -> (
            match Blif.parse blif with
            | result ->
              let gates = Sop_ext.aig_gates result in
              Hashtbl.replace first_reply key (blif, gates);
              lits_out := !lits_out + literals;
              gates_out := !gates_out + gates;
              Check.sop tally inputs.(r.circuit) result
            | exception _ -> Check.fail tally))
        | Ok (Protocol.Refused message) | Error message ->
          Printf.printf "daemon-mix: request %d failed: %s\n" k message;
          Check.fail tally)
      replies
  in
  check_replies ~count:true plain.replies tally;
  Array.iter
    (fun r ->
      lits_in := !lits_in + lits_of.(r.circuit);
      gates_in := !gates_in + gates_of.(r.circuit))
    requests;
  let traced_failures =
    match traced_pass with
    | None -> []
    | Some (p, _, default_replies) ->
      let t = Check.tally () in
      check_replies p.replies t;
      check_replies default_replies t;
      if t.Check.failed > 0 then
        [ Printf.sprintf
            "daemon-mix: %d traced replies failed or differ from the untraced \
             ones" t.Check.failed ]
      else []
  in
  Printf.printf "daemon-mix: %d requests over %d circuits, checks: %s\n"
    (Array.length requests) (Array.length blifs) (Check.summary tally);
  let hits p =
    Array.fold_left (fun acc r -> if cache_hit r then acc + 1 else acc) 0 p.replies
  in
  let expected_hits =
    Array.fold_left (fun acc r -> if r.first then acc else acc + 1) 0 requests
  in
  let totals =
    {
      Report.items = Array.length requests;
      failed = tally.Check.failed;
      wall = Report.sum (walls_at_nominal plain);
      raw_wall = plain.wall;
      speed_factor = Calibrate.mean plain.factors;
      latencies = latencies_at_nominal plain;
      raw_latencies = Array.map (fun r -> r.latency) plain.replies;
      lits_in = !lits_in;
      gates_in = !gates_in;
      lits_out = !lits_out;
      gates_out = !gates_out;
      setup = Ledger.median (Array.of_list plain.setups);
      rss_mb = plain.rss_mb;
    }
  in
  let counts p = [ ("cache.hits", hits p) ] in
  let exact =
    [ ("literals_out", !lits_out); ("gates_out", !gates_out) ] @ counts plain
  in
  let hit_problem p what =
    if hits p <> expected_hits then
      [ Printf.sprintf "daemon-mix: %d cache hits in the %s pass, %d expected"
          (hits p) what expected_hits ]
    else []
  in
  match traced_pass with
  | None ->
    {
      Report.totals;
      layers = [];
      exact;
      mismatches = hit_problem plain "untraced";
    }
  | Some (p, server, _) ->
    let latencies pred =
      Ledger.median
        (Array.of_list
           (List.filteri (fun k _ -> pred requests.(k))
              (Array.to_list (latencies_at_nominal p))))
    in
    let all = miss_counters requests p in
    let k = miss_counters ~meth:"resub-k" requests p in
    let sis = miss_counters ~meth:"resub" requests p in
    let counter_s =
      Atomic.get all.Counters.filter_seconds
      +. Atomic.get all.Counters.division_seconds
      +. Atomic.get all.Counters.validation_seconds
    in
    let busy = Ledger.total p.ledger "client.request" in
    let layers =
      [
        ("cache.hit_ratio", Report.ratio_int (hits p) (Array.length requests));
        ("job.hit_latency_p50_ms", 1000.0 *. latencies (fun r -> not r.first));
        ( "job.miss_latency_p50_ms",
          1000.0 *. latencies (fun r -> r.first && not r.warm) );
        ("job.warm_miss_latency_p50_ms", 1000.0 *. latencies (fun r -> r.warm));
      ]
      @ server
      @ [
          ("kresub.construct_s", Atomic.get k.Counters.filter_seconds);
          ("kresub.validate_s", Atomic.get k.Counters.validation_seconds);
          ( "kresub.validated_ratio",
            Report.ratio_int
              (Atomic.get k.Counters.kresub_validated)
              (Atomic.get k.Counters.kresub_candidates) );
          ( "sis.divisions",
            float_of_int (Atomic.get sis.Counters.divisions_attempted) );
        ]
      @ Report.resub_layers ~resub_s:counter_s all
      @ [
          ( "ledger.unaccounted_share",
            Report.ratio
              ((float_of_int clients *. p.wall) -. busy)
              (float_of_int clients *. p.wall) );
          ( "trace.overhead_ratio",
            Report.ratio
              (Report.sum (walls_at_nominal p))
              (Report.sum (walls_at_nominal plain)) );
        ]
    in
    let mismatches =
      hit_problem plain "untraced" @ hit_problem p "traced" @ traced_failures
      @ Report.compare_counts "daemon-mix" ~plain:(counts plain) ~traced:(counts p)
    in
    { Report.totals; layers; exact; mismatches }
