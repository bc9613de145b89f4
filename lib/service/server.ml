module Pool = Rar_util.Pool
module Trace = Rar_util.Trace

type config = {
  socket_path : string;
  jobs : int;
  cache : Cache.config option;
  max_frame : int;
  default_deadline : float option;
  trace : Trace.t;
}

let default_config ~socket_path =
  {
    socket_path;
    jobs = 0;
    cache = Some Cache.default_config;
    max_frame = Protocol.default_max_frame;
    default_deadline = None;
    trace = Trace.disabled;
  }

type conn = {
  fd : Unix.file_descr;
  conn_id : int;
  reader : Protocol.Reader.t;
  mutable busy : bool;  (* a job is in flight; the loop must not read *)
}

type t = {
  config : config;
  jobs : int;  (* resolved worker count *)
  listen_fd : Unix.file_descr;
  pool : Pool.t;
  cache : Cache.t option;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stopping : bool Atomic.t;
  mutable loop_domain : Domain.id;  (* the domain running [serve] *)
  (* Job -> loop completion queue, guarded by [mutex]: each finished
     job's connection, and whether its reply was delivered. *)
  mutex : Mutex.t;
  mutable completions : (conn * bool) list;
  mutable conns : conn list;
  mutable next_conn : int;
  next_job : int Atomic.t;
  jobs_done : int Atomic.t;
  refused : int Atomic.t;
  (* Per-worker-domain warm state (Domain.DLS): each worker keeps its
     own parsed/post-script network snapshots across jobs. *)
  warm_key : Job.warm Domain.DLS.key;
}

type stats = {
  jobs_submitted : int;
  jobs_done : int;
  refused : int;
  cache : Cache.stats option;
}

let stats t =
  {
    jobs_submitted = Atomic.get t.next_job;
    jobs_done = Atomic.get t.jobs_done;
    refused = Atomic.get t.refused;
    cache = Option.map Cache.stats t.cache;
  }

let create (config : config) =
  (* A worker writing to a client that vanished must get EPIPE, not a
     process-killing SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let jobs = Pool.resolve_jobs config.jobs in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
  Unix.listen listen_fd 64;
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  {
    config;
    jobs;
    listen_fd;
    pool = Pool.create ~jobs;
    cache = Option.map Cache.create config.cache;
    wake_r;
    wake_w;
    stopping = Atomic.make false;
    loop_domain = Domain.self ();
    mutex = Mutex.create ();
    completions = [];
    conns = [];
    next_conn = 0;
    next_job = Atomic.make 0;
    jobs_done = Atomic.make 0;
    refused = Atomic.make 0;
    warm_key = Domain.DLS.new_key Job.create_warm;
  }

let poke t =
  (* One byte is enough to wake select; a full pipe means a wake-up is
     already pending, which is just as good. *)
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _) ->
    ()

let shutdown t =
  if not (Atomic.exchange t.stopping true) then poke t

let install_signal_handlers t =
  let handle = Sys.Signal_handle (fun _ -> shutdown t) in
  Sys.set_signal Sys.sigterm handle;
  Sys.set_signal Sys.sigint handle

(* ------------------------------------------------------------------ *)
(* Job dispatch (runs on a pool worker, or inline when jobs = 1)      *)
(* ------------------------------------------------------------------ *)

let deliver conn reply =
  try
    Protocol.send_response conn.fd reply;
    true
  with Unix.Unix_error _ -> false

(* Queue a finished job for the loop. A job that ran inline on the
   loop's own domain is taken right after its dispatch; only a worker
   domain has to wake the loop out of [select]. *)
let complete t conn ~delivered =
  Mutex.lock t.mutex;
  t.completions <- (conn, delivered) :: t.completions;
  Mutex.unlock t.mutex;
  if Domain.self () <> t.loop_domain then poke t

let refuse (t : t) conn message =
  Atomic.incr t.refused;
  Trace.emit t.config.trace "job_refused"
    [ ("conn", Trace.Int conn.conn_id); ("reason", Trace.String message) ];
  ignore (deliver conn (Protocol.Refused message))

(* The whole job path is exception-tight: any error becomes a [Refused]
   reply and the worker survives. *)
let run_job t conn (request : Protocol.request) =
  let job_id = Atomic.fetch_and_add t.next_job 1 in
  let trace = t.config.trace in
  Trace.emit trace "job_queued"
    [
      ("job", Trace.Int job_id);
      ("conn", Trace.Int conn.conn_id);
      ("script", Trace.String request.script);
      ("method", Trace.String request.meth);
      ("bytes", Trace.Int (String.length request.blif));
    ];
  let request =
    match (request.deadline, t.config.default_deadline) with
    | None, Some d -> { request with deadline = Some d }
    | _ -> request
  in
  Pool.submit t.pool (fun () ->
      let start = Unix.gettimeofday () in
      let warm = Domain.DLS.get t.warm_key in
      let result ~cache_hit (entry : Cache.entry) =
        Protocol.Result
          {
            blif = entry.blif;
            literals = entry.literals;
            cache_hit;
            counters = entry.counters;
          }
      in
      let reply =
        match Job.prepare ~warm request with
        | Error message -> Protocol.Refused message
        | Ok prepared -> (
          let key =
            if request.use_cache then
              match t.cache with
              | Some _ -> Job.cache_key prepared
              | None -> None
            else None
          in
          let cached =
            match (key, t.cache) with
            | Some key, Some cache -> Cache.find cache key
            | _ -> None
          in
          match cached with
          | Some entry ->
            Trace.emit trace "cache_hit" [ ("job", Trace.Int job_id) ];
            result ~cache_hit:true entry
          | None ->
            if Option.is_some t.cache && request.use_cache then
              Trace.emit trace "cache_miss" [ ("job", Trace.Int job_id) ];
            (match Job.execute ~warm prepared with
            | entry ->
              (match (key, t.cache) with
              | Some key, Some cache -> Cache.add cache key entry
              | _ -> ());
              result ~cache_hit:false entry
            | exception e ->
              Protocol.Refused
                (Printf.sprintf "job failed: %s" (Printexc.to_string e))))
      in
      (* Count the job before the reply leaves: a client that has its
         reply must find it in [stats]. *)
      let refused = match reply with Protocol.Refused _ -> true | _ -> false in
      if refused then Atomic.incr t.refused else Atomic.incr t.jobs_done;
      let delivered = deliver conn reply in
      Trace.emit trace "job_done"
        [
          ("job", Trace.Int job_id);
          ("seconds", Trace.Float (Unix.gettimeofday () -. start));
          ("ok", Trace.Bool (not refused));
          ("delivered", Trace.Bool delivered);
        ];
      complete t conn ~delivered)

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)
(* ------------------------------------------------------------------ *)

let close_conn t conn =
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  t.conns <- List.filter (fun c -> c != conn) t.conns

let take_completions t =
  Mutex.lock t.mutex;
  let done_ = t.completions in
  t.completions <- [];
  Mutex.unlock t.mutex;
  List.rev done_

(* Hand every complete buffered frame to a job, one at a time: at most
   one job may be in flight per connection, so a dispatched request
   stops the walk until its completion is taken, and leftover bytes
   wait in the reader. *)
let rec process_frames t conn =
  if not conn.busy then
    match Protocol.Reader.next conn.reader with
    | `Await -> ()
    | `Oversized len ->
      refuse t conn
        (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len
           t.config.max_frame);
      close_conn t conn
    | `Frame payload -> (
      match Protocol.decode_request payload with
      | Error message ->
        refuse t conn ("malformed request: " ^ message);
        close_conn t conn
      | Ok request ->
        conn.busy <- true;
        run_job t conn request;
        handle_completions t)

(* The one completion path: a job that ran inline has queued itself by
   the time [run_job] returns, one on a worker domain when the loop
   next wakes. *)
and handle_completions t =
  List.iter
    (fun (conn, delivered) ->
      conn.busy <- false;
      if delivered then
        (* The client may have pipelined its next request while the job
           ran; those bytes are already buffered in the reader. *)
        process_frames t conn
      else close_conn t conn)
    (take_completions t)

(* The socket is readable: one read into the connection's reader, then
   its frames. Every read and every completion is followed by
   [process_frames], so an idle connection has no complete frame
   buffered, and the client's end of stream can close it at once:
   every request it sent before half-closing has been answered. *)
let handle_readable t conn =
  match Protocol.Reader.fill conn.reader with
  | true -> process_frames t conn
  | false -> close_conn t conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t conn

let accept_new t =
  match Unix.accept t.listen_fd with
  | fd, _ ->
    Unix.set_nonblock fd;
    t.next_conn <- t.next_conn + 1;
    let conn =
      {
        fd;
        conn_id = t.next_conn;
        reader = Protocol.Reader.create ~max_bytes:t.config.max_frame fd;
        busy = false;
      }
    in
    t.conns <- conn :: t.conns
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()

let drain_wake_pipe t =
  let scratch = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r scratch 0 (Bytes.length scratch) with
    | n when n = Bytes.length scratch -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let serve t =
  let trace = t.config.trace in
  Trace.emit trace "server_start"
    [
      ("socket", Trace.String t.config.socket_path);
      ("jobs", Trace.Int t.jobs);
      ("cache", Trace.Bool (Option.is_some t.cache));
    ];
  t.loop_domain <- Domain.self ();
  while not (Atomic.get t.stopping) do
    let readable =
      t.listen_fd :: t.wake_r
      :: List.filter_map
           (fun c -> if c.busy then None else Some c.fd)
           t.conns
    in
    match Unix.select readable [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      if List.mem t.wake_r ready then drain_wake_pipe t;
      handle_completions t;
      if List.mem t.listen_fd ready then accept_new t;
      (* Iterate over a snapshot — handlers mutate [t.conns] — and skip
         conns an earlier handler already closed. *)
      let snapshot = t.conns in
      List.iter
        (fun conn ->
          if
            List.memq conn t.conns
            && (not conn.busy)
            && List.mem conn.fd ready
          then handle_readable t conn)
        snapshot
  done;
  (* Graceful drain: no new connections or requests; in-flight jobs
     finish and deliver their replies. *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Pool.drain t.pool;
  handle_completions t;
  List.iter (fun conn -> close_conn t conn) t.conns;
  Pool.shutdown t.pool;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  (try Unix.unlink t.config.socket_path with Unix.Unix_error _ -> ());
  let s = stats t in
  Trace.emit trace "server_stats"
    ([
       ("jobs_submitted", Trace.Int s.jobs_submitted);
       ("jobs_done", Trace.Int s.jobs_done);
       ("refused", Trace.Int s.refused);
     ]
    @
    match s.cache with
    | Some c -> [ ("cache", Trace.Raw (Cache.to_json c)) ]
    | None -> [])

let with_server config f =
  let t = create config in
  let server_domain = Domain.spawn (fun () -> serve t) in
  Fun.protect
    ~finally:(fun () ->
      shutdown t;
      Domain.join server_domain)
    (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type nonrec conn = { fd : Unix.file_descr; reader : Protocol.Reader.t }

  exception Timeout

  let connect ?timeout path =
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Option.iter
        (fun s ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
          Unix.setsockopt_float fd Unix.SO_SNDTIMEO s)
        timeout;
      Unix.connect fd (Unix.ADDR_UNIX path)
    with
    | () -> { fd; reader = Protocol.Reader.create fd }
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

  let map_timeout f =
    try f ()
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      raise Timeout

  let request conn req =
    map_timeout (fun () ->
        (* With SIGPIPE ignored (see {!connect}), a daemon that died
           between connect and write surfaces as EPIPE/ECONNRESET here;
           report it like any other torn connection rather than letting
           the raw errno escape. *)
        (try Protocol.send_request conn.fd req
         with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
           raise (Protocol.Frame_error "server closed the connection"));
        match Protocol.read_frame conn.reader with
        | None -> raise (Protocol.Frame_error "server closed the connection")
        | Some payload -> (
          match Protocol.decode_response payload with
          | Ok response -> response
          | Error message ->
            raise (Protocol.Frame_error ("bad response: " ^ message))))

  let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

  let round_trip ?timeout ~socket req =
    let conn = connect ?timeout socket in
    Fun.protect ~finally:(fun () -> close conn) (fun () -> request conn req)
end
