type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;
  finished : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable pending : int;  (* submitted tasks not yet finished *)
  mutable escaped : exn option;  (* first exception a task let escape *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

let resolve_jobs = function 0 -> default_jobs () | n -> max 1 n

(* Execute one submitted task so that nothing it does can wedge the
   pool: [pending] is decremented in a finaliser, and an escaping
   exception is parked (first one wins) for {!drain} to re-raise — a
   worker domain must survive it so the queue keeps draining. *)
let exec t f =
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.mutex;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.broadcast t.finished;
      Mutex.unlock t.mutex)
    (fun () ->
      try f ()
      with e ->
        Mutex.lock t.mutex;
        if t.escaped = None then t.escaped <- Some e;
        Mutex.unlock t.mutex)

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec wait () =
    if t.stop then None
    else if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
    else begin
      Condition.wait t.work t.mutex;
      wait ()
    end
  in
  let task = wait () in
  Mutex.unlock t.mutex;
  match task with
  | None -> ()
  | Some f ->
    exec t f;
    worker_loop t

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      queue = Queue.create ();
      pending = 0;
      escaped = None;
      stop = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

(* A pool without worker domains runs submissions inline: the daemon's
   [--jobs 1] configuration degrades to a synchronous service rather
   than a wedged one. *)
let submit t f =
  Mutex.lock t.mutex;
  t.pending <- t.pending + 1;
  if t.jobs > 1 then begin
    Queue.push f t.queue;
    Condition.signal t.work
  end;
  Mutex.unlock t.mutex;
  if t.jobs = 1 then exec t f

let drain t =
  Mutex.lock t.mutex;
  while t.pending > 0 do
    Condition.wait t.finished t.mutex
  done;
  let escaped = t.escaped in
  t.escaped <- None;
  Mutex.unlock t.mutex;
  match escaped with Some e -> raise e | None -> ()

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []
