module Network = Logic_network.Network
module Dirty = Logic_network.Dirty
module Counters = Rar_util.Counters
module Trace = Rar_util.Trace

type outcome = Quiet | Committed | Refined

let memo_units c =
  Atomic.get c.Counters.memo_hits + Atomic.get c.Counters.memo_misses

let run ~driver ?(fields = []) ?(gen = fun () -> 0)
    ?(pass_work = fun c -> c.Counters.divisions_attempted) ~use_memo
    ~max_passes ?deadline_at ~trace ~counters net make_scan =
  let dirty = if use_memo then Some (Dirty.create net) else None in
  Fun.protect ~finally:(fun () -> Option.iter Dirty.detach dirty)
  @@ fun () ->
  let memo = Option.map Division_memo.create dirty in
  let scan = make_scan memo in
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
  (* One step for one dividend, with the dividend-level memo fast path:
     if nothing has moved since this dividend's last scan ran to
     quiescence, every unit inside would replay individually — skip the
     scan, reserving its total id burn. *)
  let process f =
    if deadline_passed () || not (Network.mem net f) then Quiet
    else
      match memo with
      | None -> scan f
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
          let outcome = scan f in
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
  let pass () =
    List.fold_left
      (fun changed f -> process f = Committed || changed)
      false
      (List.sort Int.compare (Network.logic_ids net))
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
  Trace.span trace driver ~fields (fun () -> loop max_passes);
  Trace.emit trace "counters"
    [ ("counters", Trace.Raw (Counters.to_json counters)) ]
