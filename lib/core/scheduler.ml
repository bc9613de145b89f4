module Network = Logic_network.Network
module Node_set = Network.Node_set
module Dirty = Logic_network.Dirty
module Counters = Rar_util.Counters
module Pool = Rar_util.Pool
module Trace = Rar_util.Trace

type outcome = Quiet | Committed | Refined

type reads = Unbounded | Set of Node_set.t

type client = {
  bounded : bool;
  scan : Network.node_id -> outcome;
  speculate : Network.t -> Counters.t -> Network.node_id -> outcome * reads;
}

(* A worker's verdict on one dividend. [Region] marks a dividend-level
   memo replay of a bounded client: its closure was not recomputed, but
   it lies inside the dividend's static region by construction. *)
type closure = Reads of reads | Region

type verdict = {
  outcome : outcome;
  closure : closure;
  burn : int;  (* node ids the scan consumed *)
  units : int;  (* memo hits + misses the scan resolved *)
  wc : Counters.t;
  seconds : float;
}

let memo_units c =
  Atomic.get c.Counters.memo_hits + Atomic.get c.Counters.memo_misses

let rec peel n acc = function
  | rest when n = 0 -> (List.rev acc, rest)
  | [] -> (List.rev acc, [])
  | x :: tl -> peel (n - 1) (x :: acc) tl

let run ~driver ?(fields = []) ?(gen = fun () -> 0)
    ?(pass_work = fun c -> c.Counters.divisions_attempted) ~jobs ~use_memo
    ~max_passes ?deadline_at ~trace ~counters net make_client =
  let dirty = if use_memo then Some (Dirty.create net) else None in
  Fun.protect ~finally:(fun () -> Option.iter Dirty.detach dirty)
  @@ fun () ->
  let memo = Option.map Division_memo.create dirty in
  let client = make_client memo in
  let jobs = max 1 jobs in
  let wpool = if jobs > 1 then Some (Pool.create ~jobs) else None in
  Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown wpool)
  @@ fun () ->
  let deadline_hit = ref false in
  let deadline_passed () =
    match deadline_at with
    | None -> false
    | Some t ->
      !deadline_hit
      || Unix.gettimeofday () > t
         && begin
              deadline_hit := true;
              Counters.add counters.Counters.degradations 1;
              Trace.emit trace "degrade"
                [
                  ("unit", Trace.String driver);
                  ("reason", Trace.String "deadline");
                ];
              true
            end
  in
  (* One sequential step for one dividend, with the dividend-level memo
     fast path: if nothing has moved since this dividend's last scan
     ran to quiescence, every unit inside would replay individually —
     skip the scan, reserving its total id burn. *)
  let process changed f =
    if deadline_passed () || not (Network.mem net f) then Quiet
    else
      let outcome =
        match memo with
        | None -> client.scan f
        | Some m -> (
          match Division_memo.replay_dividend ~gen:(gen ()) m ~f with
          | Some (burn, units) ->
            Counters.add counters.Counters.memo_hits units;
            if burn > 0 then Network.reserve_ids net burn;
            Quiet
          | None ->
            let clock0 = Dirty.clock (Division_memo.dirty m) in
            let id0 = Network.id_limit net in
            let units0 = memo_units counters in
            let outcome = client.scan f in
            if
              outcome = Quiet
              && Dirty.clock (Division_memo.dirty m) = clock0
              && Network.mem net f
            then
              Division_memo.record_dividend ~gen:(gen ()) m ~f ~at:clock0
                ~burn:(Network.id_limit net - id0)
                ~units:(memo_units counters - units0);
            outcome)
      in
      if outcome = Committed then changed := true;
      outcome
  in
  let speculate snap f =
    let t0 = Unix.gettimeofday () in
    let wc = Counters.create () in
    let replay =
      Option.bind memo (fun m ->
          Division_memo.replay_dividend ~gen:(gen ()) m ~f)
    in
    let outcome, closure, burn, units =
      match replay with
      | Some (burn, units) ->
        Counters.add wc.Counters.memo_hits units;
        let closure = if client.bounded then Region else Reads Unbounded in
        (Quiet, closure, burn, units)
      | None ->
        let id0 = Network.id_limit snap in
        let outcome, reads = client.speculate snap wc f in
        (outcome, Reads reads, Network.id_limit snap - id0, memo_units wc)
    in
    { outcome; closure; burn; units; wc; seconds = Unix.gettimeofday () -. t0 }
  in
  let wasted v =
    Counters.add counters.Counters.speculative_wasted 1;
    Counters.add_seconds counters.Counters.speculative_seconds v.seconds
  in
  (* jobs > 1. Static regions (bounded clients only) cover the pending
     dividends and are recomputed after any commit, since a rewrite can
     restructure cones across the old boundaries. *)
  let pass_batched pool changed nodes =
    let part = ref None in
    let rec drive pending =
      if not (deadline_passed ()) then
        match List.filter (Network.mem net) pending with
        | [] -> ()
        | pending ->
          let region_of =
            if not client.bounded then fun _ -> None
            else begin
              let p =
                match !part with
                | Some p -> p
                | None ->
                  let p = Partition.shard net pending in
                  part := Some p;
                  p
              in
              fun f ->
                match Partition.region_of p f with
                | r -> Some r
                | exception Not_found -> None
            end
          in
          let batch, rest = peel (Pool.jobs pool) [] pending in
          (* One frozen snapshot per batch; each worker copies it rather
             than the live network ({!Network.copy} is a pure read of its
             source, so concurrent copies are race-free). *)
          let snap = Network.copy net in
          let verdicts =
            Pool.run pool
              (List.map (fun f () -> speculate (Network.copy snap) f) batch)
          in
          let any_commit = ref false and c_unbounded = ref false in
          let c_accum = ref Node_set.empty and c_regions = ref [] in
          let re_round = ref [] in
          List.iter2
            (fun f v ->
              let other_region () =
                match region_of f with
                | Some r -> not (List.mem r !c_regions)
                | None -> false
              in
              let survives =
                (not !any_commit)
                || (not !c_unbounded)
                   &&
                   match v.closure with
                   | Reads Unbounded -> false
                   | Region -> other_region ()
                   | Reads (Set reads) ->
                     other_region () || Node_set.disjoint !c_accum reads
              in
              if not survives then begin
                wasted v;
                re_round := f :: !re_round
              end
              else if v.outcome <> Quiet then begin
                (* Discard the snapshot work and scan for real: the live
                   state matches what the worker saw on everything the
                   scan can read, so this is the jobs=1 execution. *)
                wasted v;
                let gen0 = gen () in
                if process changed f = Committed || gen () <> gen0 then begin
                  any_commit := true;
                  part := None;
                  (match v.closure with
                  | Reads (Set reads) ->
                    let post =
                      if Network.mem net f then Partition.footprint net f
                      else Node_set.empty
                    in
                    c_accum :=
                      Node_set.union !c_accum (Node_set.union reads post)
                  | Reads Unbounded | Region -> c_unbounded := true);
                  match region_of f with
                  | Some r -> c_regions := r :: !c_regions
                  | None -> c_unbounded := true
                end
              end
              else begin
                (* A quiet scan whose live re-run would provably be quiet
                   too: consume its id burn so the allocator stays
                   id-for-id with jobs=1, fold its tallies, and remember
                   the quiescent scan. *)
                Counters.accumulate counters v.wc;
                if v.burn > 0 then Network.reserve_ids net v.burn;
                match memo with
                | Some m when Network.mem net f ->
                  Division_memo.record_dividend ~gen:(gen ()) m ~f
                    ~at:(Dirty.clock (Division_memo.dirty m))
                    ~burn:v.burn ~units:v.units
                | _ -> ()
              end)
            batch verdicts;
          drive (List.rev !re_round @ rest)
    in
    drive nodes
  in
  let pass () =
    let changed = ref false in
    let nodes = List.sort Int.compare (Network.logic_ids net) in
    (match wpool with
    | Some pool -> pass_batched pool changed nodes
    | None -> List.iter (fun f -> ignore (process changed f)) nodes);
    !changed
  in
  let rec loop remaining =
    if remaining > 0 && not (deadline_passed ()) then begin
      let c = counters in
      let work0 = Atomic.get (pass_work c) in
      let hits0 = Atomic.get c.Counters.memo_hits in
      let misses0 = Atomic.get c.Counters.memo_misses in
      let cp0 = Atomic.get c.Counters.imply_checkpoints in
      let rs0 = Atomic.get c.Counters.imply_resets in
      let again = pass () in
      Counters.add c.Counters.passes 1;
      c.Counters.pass_divisions <-
        c.Counters.pass_divisions @ [ Atomic.get (pass_work c) - work0 ];
      if Trace.enabled trace then begin
        let delta a a0 = Trace.Int (Atomic.get a - a0) in
        let pass_no = ("pass", Trace.Int (Atomic.get c.Counters.passes)) in
        Trace.emit trace "memo"
          [
            ("driver", Trace.String driver);
            pass_no;
            ("hits", delta c.Counters.memo_hits hits0);
            ("misses", delta c.Counters.memo_misses misses0);
          ];
        Trace.emit trace "checkpoint"
          [
            pass_no;
            ("pops", delta c.Counters.imply_checkpoints cp0);
            ("resets", delta c.Counters.imply_resets rs0);
          ]
      end;
      if again then loop (remaining - 1)
    end
  in
  Trace.span trace driver
    ~fields:(("jobs", Trace.Int jobs) :: fields)
    (fun () -> loop max_passes);
  Trace.emit trace "counters"
    [ ("counters", Trace.Raw (Counters.to_json counters)) ]
