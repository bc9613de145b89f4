module Network = Logic_network.Network
module Aig = Logic_network.Aig
module Aig_live = Logic_network.Aig_live
module Cover = Twolevel.Cover
module Cube = Twolevel.Cube
module Literal = Twolevel.Literal
module Trace = Rar_util.Trace

type config = {
  max_gates : int;
  max_leaves : int;
  script : Script.step list;
  meth : Script.resub_method;
  settings : Script.settings;
  dc : Logic_network.Dont_care.t;
}

let default_config =
  {
    max_gates = 24;
    max_leaves = 8;
    script = Script.script_a;
    meth = Script.Ext;
    settings = Script.default_settings;
    dc = Logic_network.Dont_care.empty;
  }

type stats = {
  gates_before : int;
  gates_after : int;
  windows : int;
  accepted : int;
  reverted : int;
  skipped : int;
  live_gates : int;
}

(* ------------------------------------------------------------------ *)
(* Window growing                                                      *)
(* ------------------------------------------------------------------ *)

(* Grow a fanin cone around [pivot]: repeatedly pull the highest-id
   AND leaf into the window while the leaf cap holds. Deterministic —
   candidate order is by id, and the graph itself is deterministic —
   so the whole run is reproducible. Returns
   (gates, leaves), both sorted ascending. *)
let grow aig ~max_gates ~max_leaves pivot =
  let in_window = Hashtbl.create 64 in
  Hashtbl.replace in_window pivot ();
  let leaves () =
    let s = Hashtbl.create 64 in
    Hashtbl.iter
      (fun g () ->
        let m0, m1 = Aig.fanin_nodes aig g in
        List.iter
          (fun m ->
            if m <> 0 && not (Hashtbl.mem in_window m) then
              Hashtbl.replace s m ())
          [ m0; m1 ])
      in_window;
    s
  in
  let barred = Hashtbl.create 16 in
  let rec expand () =
    if Hashtbl.length in_window < max_gates then begin
      let cands =
        Hashtbl.fold
          (fun m () acc ->
            if Aig.is_and aig m && not (Hashtbl.mem barred m) then m :: acc
            else acc)
          (leaves ()) []
      in
      let cands = List.sort (fun a b -> compare b a) cands in
      let added =
        List.exists
          (fun c ->
            Hashtbl.replace in_window c ();
            if Hashtbl.length (leaves ()) <= max_leaves then true
            else begin
              Hashtbl.remove in_window c;
              Hashtbl.replace barred c ();
              false
            end)
          cands
      in
      if added then expand ()
    end
  in
  expand ();
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k () a -> k :: a) tbl []) in
  (sorted in_window, sorted (leaves ()))

(* ------------------------------------------------------------------ *)
(* Collapse: window gates -> SOP covers over the leaves                *)
(* ------------------------------------------------------------------ *)

exception Too_big

(* Per-node cover cap while collapsing a window: a window whose collapse
   exceeds it is skipped, not truncated. *)
let cube_limit = 128

(* Windows of fewer gates are skipped. *)
let min_gates = 3

(* A pivot alone already has two leaves (a strashed gate's fanins are
   distinct nodes). [grow] adds one gate at a time and bars a gate that
   passes the cap, and a second gate replaces a leaf by its two fanins,
   so under a cap of two almost no window reaches [min_gates] gates
   (random_small.aag: 294 of 294 windows skipped). A cap of three still
   skips 160 of 172 there. *)
let min_leaves = 3

(* Widest window the exhaustive check accepts: 2^16 patterns, 1,024
   words per node. *)
let leaf_limit = 16

(* Both phases are carried bottom-up so complemented edges are a swap,
   not a cover complementation: AND is [product] on the positive phase
   and [union] (De Morgan) on the negative one. Every cube is a
   consistent product, so an empty cover is {e exactly} the constant 0
   — emptiness checks on either phase are precise constant tests. *)
let collapse aig gates leaves =
  let var = Hashtbl.create 16 in
  List.iteri (fun i m -> Hashtbl.replace var m i) leaves;
  let memo = Hashtbl.create 64 in
  Hashtbl.replace memo 0 (Cover.zero, Cover.one);
  let rec covers m =
    match Hashtbl.find_opt memo m with
    | Some c -> c
    | None ->
      let c =
        match Hashtbl.find_opt var m with
        | Some v ->
          ( Cover.of_cubes [ Cube.of_literals_exn [ Literal.pos v ] ],
            Cover.of_cubes [ Cube.of_literals_exn [ Literal.neg v ] ] )
        | None ->
          let of_edge l =
            let r = Aig.resolve aig l in
            let p, n = covers (Aig.lit_node r) in
            if Aig.lit_is_compl r then (n, p) else (p, n)
          in
          let p0, n0 = of_edge (Aig.fanin0 aig m)
          and p1, n1 = of_edge (Aig.fanin1 aig m) in
          let p = Cover.product p0 p1 and n = Cover.union n0 n1 in
          if Cover.cube_count p > cube_limit || Cover.cube_count n > cube_limit
          then raise Too_big;
          (p, n)
      in
      Hashtbl.replace memo m c;
      c
  in
  List.iter (fun g -> ignore (covers g)) gates;
  fun g -> fst (Hashtbl.find memo g)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let optimize ?(config = default_config) ?(trace = Trace.disabled) ?counters
    aig =
  if config.max_leaves > leaf_limit then
    invalid_arg
      (Printf.sprintf "Aig_opt.optimize: max_leaves %d exceeds %d"
         config.max_leaves leaf_limit);
  if config.max_leaves < min_leaves then
    invalid_arg
      (Printf.sprintf "Aig_opt.optimize: max_leaves %d is below %d"
         config.max_leaves min_leaves);
  if config.max_gates < min_gates then
    invalid_arg
      (Printf.sprintf "Aig_opt.optimize: max_gates %d is below %d"
         config.max_gates min_gates);
  let work = Aig.compact aig in
  let gates_before = Aig.num_ands work in
  let n_inputs = Aig.num_inputs work in
  let orig_top = n_inputs + gates_before in
  let settings = config.settings in
  (* Reachability and resolved reference counts, kept up to date
     through every splice: the root test reads the counts, the gain
     test the live gate count. *)
  let live = Aig_live.create work in
  (* Every gate belongs to at most one attempted window per run: a
     pivot whose gate was already windowed is skipped, tiling the
     graph instead of re-optimising every overlapping cone. *)
  let seen = Array.make (orig_top + 1) false in
  let windows = ref 0
  and accepted = ref 0
  and reverted = ref 0
  and skipped = ref 0 in
  let past_deadline () =
    match settings.deadline_at with
    | None -> false
    | Some t -> Unix.gettimeofday () > t
  in
  (* Per-window phase seconds, in [phase_names] order; read only while
     tracing, and 0 for a phase the window did not reach. *)
  let timed = Trace.enabled trace in
  let phase_names =
    [|
      "grow_s"; "collapse_s"; "script_s"; "resub_s"; "check_s"; "splice_s";
      "recount_s";
    |]
  in
  let seconds = Array.make (Array.length phase_names) 0. in
  let phase i f =
    if not timed then f ()
    else begin
      let start = Unix.gettimeofday () in
      Fun.protect f ~finally:(fun () ->
          seconds.(i) <- seconds.(i) +. (Unix.gettimeofday () -. start))
    end
  in
  let grow_p = 0 and collapse_p = 1 and script_p = 2 and resub_p = 3
  and check_p = 4 and splice_p = 5 and recount_p = 6 in
  let window_event pivot gates leaves outcome =
    if timed then
      Trace.emit trace "aig_window"
        ([
           ("pivot", Trace.Int pivot);
           ("gates", Trace.Int (List.length gates));
           ("leaves", Trace.Int (List.length leaves));
           ("outcome", Trace.String outcome);
         ]
        @ Array.to_list
            (Array.mapi (fun i name -> (name, Trace.Float seconds.(i))) phase_names))
  in
  let process pivot =
    if timed then Array.fill seconds 0 (Array.length seconds) 0.;
    let gates, leaves =
      phase grow_p (fun () ->
          grow work ~max_gates:config.max_gates ~max_leaves:config.max_leaves
            pivot)
    in
    List.iter (fun g -> if g <= orig_top then seen.(g) <- true) gates;
    incr windows;
    if List.length gates < min_gates then begin
      incr skipped;
      window_event pivot gates leaves "too_small"
    end
    else
      match phase collapse_p (fun () -> collapse work gates leaves) with
      | exception Too_big ->
        incr skipped;
        window_event pivot gates leaves "cover_blowup"
      | cover_of ->
        (* The window network is part of the collapse phase. *)
        let wnet, pis, roots =
          phase collapse_p (fun () ->
            (* Roots: window gates some edge outside the window (or an
               output) resolves into. *)
            let internal = Hashtbl.create 64 in
            List.iter
              (fun g ->
                let m0, m1 = Aig.fanin_nodes work g in
                List.iter
                  (fun m ->
                    Hashtbl.replace internal m
                      (1 + Option.value ~default:0 (Hashtbl.find_opt internal m)))
                  [ m0; m1 ])
              gates;
            let roots =
              List.filter
                (fun g ->
                  Aig_live.refs live g
                  > Option.value ~default:0 (Hashtbl.find_opt internal g))
                gates
            in
            let wnet = Network.create () in
            let pis =
              Array.of_list
                (List.mapi
                   (fun i _ -> Network.add_input wnet (Printf.sprintf "x%d" i))
                   leaves)
            in
            List.iteri
              (fun i r ->
                let name = Printf.sprintf "y%d" i in
                let id = Network.add_logic wnet ~name ~fanins:pis (cover_of r) in
                Network.add_output wnet name id)
              roots;
            (wnet, pis, roots))
        in
        (* Project the external don't-care view into the window's input
           space: a global EXCDC cube survives when every literal names a
           primary input that is a leaf of this window (renamed to the
           window's [x<i>] convention). Cubes mentioning non-leaf inputs
           — or internal-gate leaves, which have no PI name — are
           dropped, which only under-approximates the impossible set and
           stays sound. *)
        let rename name =
          let renamed = ref None in
          List.iteri
            (fun i leaf ->
              if
                leaf >= 1 && leaf <= n_inputs
                && String.equal (Aig.input_name work leaf) name
              then renamed := Some (Printf.sprintf "x%d" i))
            leaves;
          !renamed
        in
        let wdc = Logic_network.Dont_care.project config.dc ~rename in
        let wresub =
          Script.resub_command ~settings ?counters ~dc:wdc config.meth
        in
        let reference = phase check_p (fun () -> Network.copy wnet) in
        phase script_p (fun () ->
            Script.run ~resub:wresub ~trace:Trace.disabled wnet config.script);
        phase resub_p (fun () -> wresub wnet);
        (* Every pattern over the leaves, modulo the window DC view:
           masked patterns cannot occur, so the splice stays sound
           globally. *)
        if
          phase check_p (fun () ->
              Logic_sim.Equiv.exhaustive ~dc:wdc reference wnet
              <> Logic_sim.Equiv.Equivalent)
        then begin
          incr skipped;
          window_event pivot gates leaves "verify_failed"
        end
        else begin
          let subs =
            phase splice_p (fun () ->
                (* Window input [pis.(i)] is the [i]-th leaf; an input
                   the optimiser dropped is never asked for. *)
                let leaf = Hashtbl.create 16 in
                List.iteri
                  (fun i m -> Hashtbl.replace leaf pis.(i) (Aig.lit_of_node m))
                  leaves;
                Aig.add_network work wnet ~input:(Hashtbl.find leaf)
                |> List.combine roots
                |> List.filter (fun (r, l) -> Aig.lit_node l <> r))
          in
          if subs = [] then begin
            incr skipped;
            window_event pivot gates leaves "unchanged"
          end
          else
            let outcome =
              phase recount_p (fun () ->
                  match Aig_live.apply live subs with
                  | None ->
                    Aig_live.revert live;
                    incr reverted;
                    "cycle"
                  | Some n when n < Aig_live.count live ->
                    Aig_live.commit live;
                    incr accepted;
                    "accepted"
                  | Some _ ->
                    Aig_live.revert live;
                    incr reverted;
                    "no_gain")
            in
            window_event pivot gates leaves outcome
        end
  in
  (let stop = ref false in
   let pivot = ref orig_top in
   while (not !stop) && !pivot > n_inputs do
     let p = !pivot in
     decr pivot;
     if past_deadline () then begin
       stop := true;
       if Trace.enabled trace then
         Trace.emit trace "aig_opt.deadline" [ ("pivot", Trace.Int p) ]
     end
     else if Aig_live.refs live p > 0 && not seen.(p) then process p
   done);
  let live_gates = Aig_live.count live in
  let recount = Aig.live_gate_count work in
  if live_gates <> recount then
    failwith
      (Printf.sprintf "Aig_opt: incremental live count %d, recount %d"
         live_gates recount);
  let result = Aig.compact work in
  (* Compacting a substitution-heavy graph can strand gates that were
     rebuilt before their parent strash-folded onto an earlier node; a
     second pass is a pure reachability sweep (no substitutions, no
     duplicates left to fold) and drops them, so the result is exactly
     what [Aiger.to_string] would emit. *)
  let result =
    if Aig.live_gate_count result < Aig.num_ands result then
      Aig.compact result
    else result
  in
  let stats =
    {
      gates_before;
      gates_after = Aig.num_ands result;
      windows = !windows;
      accepted = !accepted;
      reverted = !reverted;
      skipped = !skipped;
      live_gates;
    }
  in
  if Trace.enabled trace then
    Trace.emit trace "aig_opt"
      ([
        ("gates_before", Trace.Int stats.gates_before);
        ("gates_after", Trace.Int stats.gates_after);
        ("windows", Trace.Int stats.windows);
        ("accepted", Trace.Int stats.accepted);
        ("reverted", Trace.Int stats.reverted);
        ("skipped", Trace.Int stats.skipped);
      ]
      @ Option.fold ~none:[]
          ~some:(fun c ->
            [ ("counters", Trace.Raw (Rar_util.Counters.to_json c)) ])
          counters);
  (result, stats)
