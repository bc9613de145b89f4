(* The benchmark's own spans, recorded around calls into the program's
   public entry points and kept in memory until the run ends.

   A span has a name, a start and stop time, and the id of the span
   that caused it ([-1] for a root). Spans of one item (one circuit,
   one daemon request) are children of that item's root span, so the
   self time of an item is its duration minus its layer spans. *)

type span = {
  id : int;
  parent : int;
  name : string;
  start : float;
  stop : float;
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 0 }

let now = Unix.gettimeofday

let fresh_id t =
  let id = t.next in
  t.next <- id + 1;
  id

let record t ~parent name start stop =
  let id = fresh_id t in
  t.spans <- { id; parent; name; start; stop } :: t.spans;
  id

(* Open a root span now; the returned closure closes it. *)
let root t name =
  let start = now () in
  let id = fresh_id t in
  ( id,
    fun () ->
      t.spans <- { id; parent = -1; name; start; stop = now () } :: t.spans )

let time t ~parent name f =
  let start = now () in
  let result = f () in
  ignore (record t ~parent name start (now ()));
  result

let spans t = List.rev t.spans

let duration s = s.stop -. s.start

let named t name = List.filter (fun s -> String.equal s.name name) (spans t)

let total t name =
  List.fold_left (fun acc s -> acc +. duration s) 0.0 (named t name)

let durations t name = Array.of_list (List.map duration (named t name))

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start\": %.6f, \
             \"stop\": %.6f}\n"
            s.id s.parent s.name s.start s.stop)
        (spans t))

(* Median and tail of a latency sample. The tail is the highest
   percentile with at least ten samples beyond it: the (n-10)-th
   smallest of n samples. Below 20 samples that percentile is no tail
   at all (at most the median), so the maximum is reported instead,
   with [beyond] = 0. *)
type latency = { p50 : float; tail : float; tail_pct : float; beyond : int }

let latency samples =
  let n = Array.length samples in
  if n = 0 then { p50 = 0.0; tail = 0.0; tail_pct = 0.0; beyond = 0 }
  else
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    let p50 = Rar_util.Stopwatch.percentile sorted 50.0 in
    if n < 20 then
      { p50; tail = sorted.(n - 1); tail_pct = 100.0; beyond = 0 }
    else
      { p50; tail = sorted.(n - 11);
        tail_pct = 100.0 *. float_of_int (n - 10) /. float_of_int n;
        beyond = 10 }

let median samples =
  if Array.length samples = 0 then 0.0
  else Rar_util.Stopwatch.percentile samples 50.0
