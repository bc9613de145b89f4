module Network = Logic_network.Network
module Counters = Rar_util.Counters
module Trace = Rar_util.Trace

let run ~driver ?(fields = [])
    ?(pass_work = fun c -> c.Counters.divisions_attempted) ~max_passes
    ?deadline_at ~trace ~counters net scan =
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
  let pass () =
    List.fold_left
      (fun changed f ->
        let committed =
          (not (deadline_passed ())) && Network.mem net f && scan f
        in
        committed || changed)
      false
      (List.sort Int.compare (Network.logic_ids net))
  in
  let rec loop remaining =
    if remaining > 0 && not (deadline_passed ()) then begin
      let c = counters in
      let work0 = Atomic.get (pass_work c) in
      let cp0 = Atomic.get c.Counters.imply_checkpoints in
      let rs0 = Atomic.get c.Counters.imply_resets in
      let again = pass () in
      Counters.add c.Counters.passes 1;
      Counters.add_pass c (max_passes - remaining)
        (Atomic.get (pass_work c) - work0);
      if Trace.enabled trace then begin
        let delta a a0 = Trace.Int (Atomic.get a - a0) in
        Trace.emit trace "checkpoint"
          [
            ("pass", Trace.Int (Atomic.get c.Counters.passes));
            ("pops", delta c.Counters.imply_checkpoints cp0);
            ("resets", delta c.Counters.imply_resets rs0);
          ]
      end;
      if again then loop (remaining - 1)
    end
  in
  Trace.span trace driver ~fields (fun () -> loop max_passes);
  (* The snapshot is serialised only for a live trace: [Aig_opt] runs
     one scheduler per window, and an eager [to_json] per run would
     cost more than many of those runs. *)
  if Trace.enabled trace then
    Trace.emit trace "counters"
      [ ("counters", Trace.Raw (Counters.to_json counters)) ]
