open Twolevel
module Network = Logic_network.Network
module Lift = Logic_network.Lift

type pool_cube = Network.node_id * int

type entry = {
  wire : Atpg.Fault.wire;
  wire_cube : Cube.t;
  candidates : pool_cube list;
  valid : bool;
  conflicted : bool;
}

let lifter net =
  let lifted = Hashtbl.create 8 in
  fun (m, j) ->
    let cubes =
      match Hashtbl.find_opt lifted m with
      | Some cubes -> cubes
      | None ->
        let cubes = Array.of_list (Lift.cubes net m) in
        Hashtbl.add lifted m cubes;
        cubes
    in
    cubes.(j)

let collect ?(gdc = false) ?(learn_depth = 0) ?budget ?counters ?dc net ~f
    ~pool =
  let pool =
    List.filter
      (fun m ->
        m <> f
        && (not (Network.is_input net m))
        && not (Network.depends_on net m f))
      pool
  in
  let frozen = Network.fanout_cone_order net [ f ] in
  let region =
    if gdc then None else Some (Basic_division.region_nodes net (f :: pool))
  in
  let literal_wires =
    List.filter
      (function Atpg.Fault.Literal_wire _ -> true | Atpg.Fault.Cube_wire _ -> false)
      (Atpg.Fault.all_wires net f)
  in
  let pool_cubes =
    List.concat_map
      (fun m ->
        List.mapi (fun j _ -> (m, j)) (Cover.cubes (Network.cover net m)))
      pool
  in
  (* collect is read-only on the network, so every cube is lifted once:
     [f]'s up front, the pool's as the SOS filter first meets them. *)
  let f_cubes = Array.of_list (Lift.cubes net f) in
  let wire_cube wire = f_cubes.(Atpg.Fault.wire_cube wire) in
  let lifted_pool_cube = lifter net in
  (* One arena shared by every wire of [f]: region and frozen are the
     same for all of them, only the activation assignments differ.
     Wires of the same cube additionally share the "other cubes at 0"
     context, so it is asserted once per cube behind a trail checkpoint
     and each wire branches from there with a pop instead of a full
     reset + replay. *)
  let engine = Atpg.Imply.create ?region ~frozen ?budget ?counters ?dc net in
  let degraded = ref false in
  (* Sticky, like the budget itself: once a wire exhausts it, every
     later assignment would re-raise immediately. *)
  let exhausted = ref false in
  let assign = Atpg.Fault.assign engine in
  let exhausted_entry wire wire_cube =
    (* The implication budget ran out mid-table: this wire (and, since
       exhaustion is sticky, the remaining ones) contributes no votes.
       The table is merely truncated — every recorded entry is still a
       sound implication result. *)
    degraded := true;
    { wire; wire_cube; candidates = []; valid = false; conflicted = false }
  in
  let conflicted_entry wire wire_cube =
    { wire; wire_cube; candidates = []; valid = false; conflicted = true }
  in
  let ok_entry wire wire_cube =
    let candidates =
      List.filter
        (fun (m, j) -> Atpg.Imply.cube_value engine m j = Some false)
        pool_cubes
    in
    (* SOS validity: some candidate cube must contain the wire's cube so
       the cube lands in the f1 region of the eventual core divisor. *)
    let valid =
      List.exists
        (fun pc -> Cube.contained_by wire_cube (lifted_pool_cube pc))
        candidates
    in
    { wire; wire_cube; candidates; valid; conflicted = false }
  in
  let entry_of_wire mark wire =
    let wire_cube = wire_cube wire in
    if !exhausted then exhausted_entry wire wire_cube
    else begin
      (* collect is read-only on the network, so the mark cannot go
         stale between wires. *)
      let popped = Atpg.Imply.pop_to engine mark in
      assert popped;
      match
        List.iter assign (Atpg.Fault.local_activation_assignments net wire);
        if learn_depth > 0 then Atpg.Imply.learn ~depth:learn_depth engine
      with
      | () -> ok_entry wire wire_cube
      | exception Atpg.Imply.Conflict _ -> conflicted_entry wire wire_cube
      | exception Rar_util.Budget.Exhausted _ ->
        exhausted := true;
        exhausted_entry wire wire_cube
    end
  in
  (* Group the (cube-major ordered) wires by cube, preserving order. *)
  let groups =
    List.fold_left
      (fun groups wire ->
        let cube = Atpg.Fault.wire_cube wire in
        match groups with
        | (c, wires) :: rest when c = cube -> (c, wires @ [ wire ]) :: rest
        | _ -> (cube, [ wire ]) :: groups)
      [] literal_wires
    |> List.rev
  in
  let entry_group (cube, wires) =
    if !exhausted then
      List.map (fun w -> exhausted_entry w (wire_cube w)) wires
    else begin
      Atpg.Imply.reset engine;
      match
        Atpg.Imply.propagate engine;
        List.iter assign (Atpg.Fault.cube_context_assignments net ~node:f ~cube)
      with
      | () ->
        let mark = Atpg.Imply.checkpoint engine in
        List.map (entry_of_wire mark) wires
      | exception Atpg.Imply.Conflict _ ->
        (* The shared context alone is inconsistent: every wire of the
           cube would derive the same conflict (each wire's activation
           set is a superset of the context). *)
        List.map (fun w -> conflicted_entry w (wire_cube w)) wires
      | exception Rar_util.Budget.Exhausted _ ->
        exhausted := true;
        List.map (fun w -> exhausted_entry w (wire_cube w)) wires
    end
  in
  let entries = List.concat_map entry_group groups in
  (match (!degraded, counters) with
  | true, Some c ->
    Rar_util.Counters.add c.Rar_util.Counters.degradations 1
  | _ -> ());
  entries

let valid_entries entries =
  List.filter (fun e -> e.valid && e.candidates <> []) entries

let pool_cube_to_string net (m, j) =
  Printf.sprintf "%s[%s]" (Network.name net m)
    (match List.nth_opt (Cover.cubes (Network.cover net m)) j with
    | Some cube ->
      Cube.to_string
        ~names:(fun v -> Network.name net (Network.fanins net m).(v))
        cube
    | None -> string_of_int j)

let table_to_string net entries =
  let table =
    Rar_util.Text_table.create
      [
        ("wire", Rar_util.Text_table.Left);
        ("candidate core divisor (cubes implied 0)", Rar_util.Text_table.Left);
        ("valid", Rar_util.Text_table.Left);
      ]
  in
  List.iter
    (fun e ->
      let candidate_text =
        if e.conflicted then "(removable with no divisor)"
        else if e.candidates = [] then "(none)"
        else
          String.concat " + " (List.map (pool_cube_to_string net) e.candidates)
      in
      Rar_util.Text_table.add_row table
        [
          Atpg.Fault.wire_to_string net e.wire;
          candidate_text;
          (if e.valid then "yes" else "no");
        ])
    entries;
  Rar_util.Text_table.render table
