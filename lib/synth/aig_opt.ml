module Network = Logic_network.Network
module Aig = Logic_network.Aig
module Cover = Twolevel.Cover
module Cube = Twolevel.Cube
module Literal = Twolevel.Literal
module Trace = Rar_util.Trace

type config = {
  max_gates : int;
  max_leaves : int;
  min_gates : int;
  cube_limit : int;
  script : Script.step list;
  meth : Script.resub_method;
  settings : Script.settings;
  verify_windows : bool;
  dc : Logic_network.Dont_care.t option;
}

let default_config =
  {
    max_gates = 24;
    max_leaves = 8;
    min_gates = 3;
    cube_limit = 128;
    script = Script.script_a;
    meth = Script.Ext;
    settings = Script.default_settings;
    verify_windows = false;
    dc = None;
  }

type stats = {
  gates_before : int;
  gates_after : int;
  windows : int;
  accepted : int;
  reverted : int;
  skipped : int;
}

(* ------------------------------------------------------------------ *)
(* Live view                                                           *)
(* ------------------------------------------------------------------ *)

(* Reachability and resolved reference counts over the current graph.
   [refs.(n)] counts edges into [n] from live gates and outputs, with
   substitutions resolved — the basis for deciding which window gates
   are roots (referenced from outside the window). Recomputed only
   after an accepted splice; reverted splices leave the live graph
   untouched. *)
type view = { live : bool array; refs : int array }

let view_of aig =
  let n = Aig.node_count aig in
  let live = Array.make n false in
  let refs = Array.make n 0 in
  let stack = Stack.create () in
  let visit l =
    let m = Aig.lit_node (Aig.resolve aig l) in
    refs.(m) <- refs.(m) + 1;
    if not live.(m) then begin
      live.(m) <- true;
      if Aig.is_and aig m then Stack.push m stack
    end
  in
  List.iter (fun (_, l) -> visit l) (Aig.outputs aig);
  while not (Stack.is_empty stack) do
    let g = Stack.pop stack in
    visit (Aig.fanin0 aig g);
    visit (Aig.fanin1 aig g)
  done;
  { live; refs }

(* Resolved fanin node of one stored edge; node 0 for constants. *)
let resolved_fanins aig g =
  ( Aig.lit_node (Aig.resolve aig (Aig.fanin0 aig g)),
    Aig.lit_node (Aig.resolve aig (Aig.fanin1 aig g)) )

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
        let m0, m1 = resolved_fanins aig g in
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

(* Both phases are carried bottom-up so complemented edges are a swap,
   not a cover complementation: AND is [product] on the positive phase
   and [union] (De Morgan) on the negative one. Every cube is a
   consistent product, so an empty cover is {e exactly} the constant 0
   — emptiness checks on either phase are precise constant tests. *)
let collapse aig ~cube_limit gates leaves =
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
(* Tseitin splice: optimised window network -> new AIG nodes           *)
(* ------------------------------------------------------------------ *)

(* Rebuild the optimised window inside the big AIG, mapping window
   input [inputs.(i)] to the [i]-th leaf. [Aig.add_and] strashes and
   resolves as it goes, so an unchanged window reproduces its original
   gates literally (and the root substitution below is skipped). *)
let splice aig wnet ~inputs leaves =
  let value = Hashtbl.create 64 in
  List.iteri
    (fun i leaf ->
      (* Ids are never reused, so a missing one is an unused input the
         optimiser dropped. *)
      if Network.mem wnet inputs.(i) then
        Hashtbl.replace value inputs.(i) (Aig.lit_of_node leaf))
    leaves;
  let lit_of_cube fanins cube =
    List.fold_left
      (fun acc l ->
        let base = Hashtbl.find value fanins.(Literal.var l) in
        let base = if Literal.is_pos l then base else Aig.lit_not base in
        Aig.add_and aig acc base)
      Aig.const_true (Cube.literals cube)
  in
  List.iter
    (fun id ->
      if not (Hashtbl.mem value id) then begin
        let fanins = Network.fanins wnet id in
        let l =
          List.fold_left
            (fun acc cube -> Aig.add_or aig acc (lit_of_cube fanins cube))
            Aig.const_false
            (Cover.cubes (Network.cover wnet id))
        in
        Hashtbl.replace value id l
      end)
    (Network.topological wnet);
  List.map (fun (name, id) -> (name, Hashtbl.find value id)) (Network.outputs wnet)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let optimize ?(config = default_config) ?(trace = Trace.disabled) ?counters
    aig =
  let work = Aig.compact aig in
  let gates_before = Aig.num_ands work in
  let n_inputs = Aig.num_inputs work in
  let orig_top = n_inputs + gates_before in
  let settings = config.settings in
  let view = ref (view_of work) in
  let current_live = ref gates_before in
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
    [| "grow_s"; "collapse_s"; "script_s"; "resub_s"; "splice_s"; "recount_s" |]
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
  and splice_p = 4 and recount_p = 5 in
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
    if List.length gates < config.min_gates then begin
      incr skipped;
      window_event pivot gates leaves "too_small"
    end
    else
      match
        phase collapse_p (fun () ->
            collapse work ~cube_limit:config.cube_limit gates leaves)
      with
      | exception Too_big ->
        incr skipped;
        window_event pivot gates leaves "cover_blowup"
      | cover_of ->
        (* The window network is part of the collapse phase. *)
        let wnet, pis, roots =
          phase collapse_p (fun () ->
            let v = !view in
            (* Roots: window gates some edge outside the window (or an
               output) resolves into. *)
            let internal = Hashtbl.create 64 in
            List.iter
              (fun g ->
                let m0, m1 = resolved_fanins work g in
                List.iter
                  (fun m ->
                    Hashtbl.replace internal m
                      (1 + Option.value ~default:0 (Hashtbl.find_opt internal m)))
                  [ m0; m1 ])
              gates;
            let roots =
              List.filter
                (fun g ->
                  v.refs.(g)
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
        let wdc =
          match config.dc with
          | None -> None
          | Some dc when Logic_network.Dont_care.is_empty dc -> None
          | Some dc ->
            let name_of = Hashtbl.create 8 in
            List.iteri
              (fun i leaf ->
                if leaf >= 1 && leaf <= n_inputs then
                  Hashtbl.replace name_of
                    (Aig.input_name work leaf)
                    (Printf.sprintf "x%d" i))
              leaves;
            let projected =
              Logic_network.Dont_care.project dc
                ~rename:(Hashtbl.find_opt name_of)
            in
            if Logic_network.Dont_care.is_empty projected then None
            else Some projected
        in
        let wresub =
          Script.resub_command ~settings ?counters ?dc:wdc config.meth
        in
        let reference =
          if config.verify_windows then Some (Network.copy wnet) else None
        in
        phase script_p (fun () ->
            Script.run ~resub:wresub ~trace:Trace.disabled wnet config.script);
        phase resub_p (fun () -> wresub wnet);
        if
          match reference with
          | Some before -> (
            (* Under a window DC view the rewrite only needs to hold on
               the care set; the spliced result is still sound globally
               because the masked patterns cannot occur. *)
            match wdc with
            | None -> not (Robdd.Of_network.equivalent before wnet)
            | Some wdc -> (
              match Logic_sim.Equiv.check_dc wdc before wnet with
              | Logic_sim.Equiv.Equivalent -> false
              | Logic_sim.Equiv.Counterexample _ -> true))
          | None -> false
        then begin
          incr skipped;
          window_event pivot gates leaves "verify_failed"
        end
        else begin
          let subs = ref [] in
          phase splice_p (fun () ->
              let out_lits = splice work wnet ~inputs:pis leaves in
              List.iteri
                (fun i r ->
                  let l = List.assoc (Printf.sprintf "y%d" i) out_lits in
                  if Aig.lit_node l <> r then begin
                    Aig.substitute work r l;
                    subs := r :: !subs
                  end)
                roots);
          let revert () = List.iter (Aig.clear_substitute work) !subs in
          if !subs = [] then begin
            incr skipped;
            window_event pivot gates leaves "unchanged"
          end
          else
            let outcome =
              phase recount_p (fun () ->
                  match Aig.live_gate_count work with
                  | exception Aig.Cycle ->
                    revert ();
                    incr reverted;
                    "cycle"
                  | n when n < !current_live ->
                    current_live := n;
                    view := view_of work;
                    incr accepted;
                    "accepted"
                  | _ ->
                    revert ();
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
     else if (!view).live.(p) && not seen.(p) then process p
   done);
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
