type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;
  finished : Condition.t;
  mutable tasks : (unit -> unit) array;
  mutable next : int;  (* next unclaimed task index *)
  mutable pending : int;  (* claimed-or-unclaimed tasks not yet finished *)
  mutable escaped : exn option;  (* first exception a task let escape *)
  queue : (unit -> unit) Queue.t;  (* submitted (non-batch) tasks *)
  mutable queued_pending : int;  (* submitted tasks not yet finished *)
  mutable queued_escaped : exn option;  (* first exception a submitted task let escape *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

let resolve_jobs = function 0 -> default_jobs () | n -> max 1 n

let jobs t = t.jobs

(* Claim-execute-account loop shared by workers and the caller. Claims
   happen under the mutex; execution outside it. *)
let try_claim t =
  if t.next < Array.length t.tasks then begin
    let i = t.next in
    t.next <- i + 1;
    Some i
  end
  else None

let finish_one t =
  Mutex.lock t.mutex;
  t.pending <- t.pending - 1;
  if t.pending = 0 then Condition.broadcast t.finished;
  Mutex.unlock t.mutex

(* Execute one claimed task so that NOTHING it does can wedge the pool: the
   pending count is decremented in a [Fun.protect] finaliser, and an
   exception escaping the task is parked (first one wins) for [run] to
   re-raise on the calling domain after the barrier — a worker domain must
   survive it, or the batch's remaining tasks are never claimed and [run]
   waits on [finished] forever. *)
let exec_task t i =
  Fun.protect
    ~finally:(fun () -> finish_one t)
    (fun () ->
      try t.tasks.(i) ()
      with e ->
        Mutex.lock t.mutex;
        if t.escaped = None then t.escaped <- Some e;
        Mutex.unlock t.mutex)

(* Execute one submitted task. Accounting mirrors [exec_task]:
   [queued_pending] is decremented in a finaliser and an escaping
   exception is parked (first one wins) for {!drain} to re-raise — a
   worker domain must survive it so the queue keeps draining. *)
let exec_queued t f =
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.mutex;
      t.queued_pending <- t.queued_pending - 1;
      if t.queued_pending = 0 && Queue.is_empty t.queue then
        Condition.broadcast t.finished;
      Mutex.unlock t.mutex)
    (fun () ->
      try f ()
      with e ->
        Mutex.lock t.mutex;
        if t.queued_escaped = None then t.queued_escaped <- Some e;
        Mutex.unlock t.mutex)

let rec worker_loop t =
  Mutex.lock t.mutex;
  let action =
    let rec wait () =
      if t.stop then `Stop
      else
        match try_claim t with
        | Some i -> `Task i
        | None ->
          if not (Queue.is_empty t.queue) then `Queued (Queue.pop t.queue)
          else begin
            Condition.wait t.work t.mutex;
            wait ()
          end
    in
    wait ()
  in
  Mutex.unlock t.mutex;
  match action with
  | `Stop -> ()
  | `Task i ->
    exec_task t i;
    worker_loop t
  | `Queued f ->
    exec_queued t f;
    worker_loop t

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      tasks = [||];
      next = 0;
      pending = 0;
      escaped = None;
      queue = Queue.create ();
      queued_pending = 0;
      queued_escaped = None;
      stop = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let run t thunks =
  match thunks with
  | [] -> []
  | [ f ] -> [ f () ]
  | _ ->
    let n = List.length thunks in
    let results = Array.make n None in
    let wrapped =
      Array.of_list
        (List.mapi
           (fun i f () ->
             results.(i) <-
               Some (match f () with v -> Ok v | exception e -> Error e))
           thunks)
    in
    Mutex.lock t.mutex;
    t.tasks <- wrapped;
    t.next <- 0;
    t.pending <- n;
    t.escaped <- None;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    (* The calling domain helps until the batch drains, then waits for
       stragglers still executing on workers. *)
    let rec help () =
      Mutex.lock t.mutex;
      match try_claim t with
      | Some i ->
        Mutex.unlock t.mutex;
        exec_task t i;
        help ()
      | None ->
        while t.pending > 0 do
          Condition.wait t.finished t.mutex
        done;
        t.tasks <- [||];
        t.next <- 0;
        Mutex.unlock t.mutex
    in
    help ();
    (* Every task ran and was accounted for; surface failures in index
       order so the caller sees the same exception a sequential run
       would have seen first. *)
    List.init n (fun i ->
        match results.(i) with
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> (
          (* The task died before recording a result (an exception from
             outside the thunk wrapper, e.g. an async one): re-raise the
             parked exception rather than invent a value. *)
          match t.escaped with
          | Some e -> raise e
          | None -> failwith "Pool.run: task finished without a result"))

(* A pool without worker domains runs submissions inline: the daemon's
   [--jobs 1] configuration degrades to a synchronous service rather
   than a wedged one. *)
let submit t f =
  if t.jobs = 1 then begin
    Mutex.lock t.mutex;
    t.queued_pending <- t.queued_pending + 1;
    Mutex.unlock t.mutex;
    exec_queued t f
  end
  else begin
    Mutex.lock t.mutex;
    t.queued_pending <- t.queued_pending + 1;
    Queue.push f t.queue;
    Condition.signal t.work;
    Mutex.unlock t.mutex
  end

let drain t =
  Mutex.lock t.mutex;
  while t.queued_pending > 0 do
    Condition.wait t.finished t.mutex
  done;
  let escaped = t.queued_escaped in
  t.queued_escaped <- None;
  Mutex.unlock t.mutex;
  match escaped with Some e -> raise e | None -> ()

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []
