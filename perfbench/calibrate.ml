(* Host-speed calibration.

   The benchmark runs on a share of a host whose other tenants load the
   same cores for tens of seconds to minutes at a time. While they do,
   every piece of code runs up to 1.6 times slower, the program and a
   fixed loop alike; process CPU time grows with the wall, so it is not
   time spent descheduled. Left alone, that swing is wider than any
   change worth measuring.

   So each timed item (a circuit, an AIG, a daemon segment, a set-up)
   is bracketed by [probe]s: a fixed loop of allocation, hashing and
   sorting that touches none of the program's code. The host's speed
   during the item is the mean of the probes before and after it,
   relative to [nominal], and the item's time is reported at nominal
   speed: raw seconds divided by that factor. On an uncontended host
   the factor is about 1 and the reported time is the raw one. A change
   to the program moves the item's raw time but not the probe, so it
   shows in full. The raw timed wall, the mean factor and the raw
   latencies are printed beside the result. *)

(* The probe's seconds on an uncontended 2-core x86-64 host (Xeon,
   KVM guest): the 5th percentile of a minute of back-to-back runs of
   [work]. *)
let nominal = 0.0072

(* The probe's work: allocation, hashing and sorting, the kinds of work
   the program's symbolic code does, but none of the program's code. *)
let work () =
  let table = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 40_000 do
    let k = i * 7919 land 4095 in
    (match Hashtbl.find_opt table k with
    | Some l -> Hashtbl.replace table k (i :: List.filteri (fun j _ -> j < 4) l)
    | None -> Hashtbl.replace table k [ i ]);
    acc := !acc + k
  done;
  let a = Array.init 4096 (fun i -> i * 31 land 1023) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (!acc + a.(7)))

(* One probe: the fastest of three runs of [work], in seconds, about
   7 ms at nominal speed. The first run after a fork pays copy-on-write
   faults on the heap it writes, and a run that a timer interrupt lands
   in reads slow; a busy neighbour slows all three. *)
let probe () =
  let once () =
    let t0 = Unix.gettimeofday () in
    work ();
    Unix.gettimeofday () -. t0
  in
  let a = once () in
  let b = once () in
  Float.min a (Float.min b (once ()))

(* [Array.map run_item items], with each item bracketed by probes.
   Also returns the items' speed factors (1 = nominal speed, 1.5 = the
   host ran 1.5 times slower). *)
let bracket run_item items =
  let factors = Array.make (Array.length items) 1.0 in
  let before = ref (probe ()) in
  let results =
    Array.mapi
      (fun i item ->
        let result = run_item item in
        let after = probe () in
        factors.(i) <- (!before +. after) /. 2.0 /. nominal;
        before := after;
        result)
      items
  in
  (results, factors)

(* Per-item raw seconds at nominal speed. *)
let at_nominal ~factors seconds = Array.map2 ( /. ) seconds factors

(* The mean factor, printed beside the result. *)
let mean factors =
  Array.fold_left ( +. ) 0.0 factors /. float_of_int (max 1 (Array.length factors))
