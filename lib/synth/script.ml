module Network = Logic_network.Network

type step =
  | Sweep
  | Eliminate of int
  | Simplify
  | Full_simplify
  | Gcx
  | Gkx
  | Resub

type resub_command = Network.t -> unit

let script_a = [ Eliminate 0; Simplify ]

let script_b = script_a @ [ Gcx ]

let script_c = script_a @ [ Gkx ]

let script_algebraic =
  [
    Sweep;
    Eliminate (-1);
    Simplify;
    Eliminate (-1);
    Sweep;
    Eliminate 0;
    Simplify;
    Resub;
    Gkx;
    Resub;
    Sweep;
    Eliminate (-1);
    Sweep;
    Full_simplify;
  ]

let step_name = function
  | Sweep -> "sweep"
  | Eliminate _ -> "eliminate"
  | Simplify -> "simplify"
  | Full_simplify -> "full_simplify"
  | Gcx -> "gcx"
  | Gkx -> "gkx"
  | Resub -> "resub"

let run ?resub ?(trace = Rar_util.Trace.disabled) net steps =
  List.iter
    (fun step ->
      Rar_util.Trace.span trace
        ("step." ^ step_name step)
        (fun () ->
          match step with
          | Sweep -> ignore (Logic_network.Sweep.run net)
          | Eliminate threshold ->
            ignore (Logic_network.Collapse.eliminate ~threshold net)
          | Simplify -> ignore (Simplify.run net)
          | Full_simplify -> ignore (Full_simplify.run net)
          | Gcx -> ignore (Extract.gcx net)
          | Gkx -> ignore (Extract.gkx net)
          | Resub -> (
            match resub with Some command -> command net | None -> ())))
    steps

type resub_method = Algebraic | Basic | Ext | Ext_gdc | Kresub

let resub_methods =
  [
    ("sis", Algebraic);
    ("basic", Basic);
    ("ext", Ext);
    ("ext-gdc", Ext_gdc);
    ("resub-k", Kresub);
  ]

let scripts =
  [
    ("none", []);
    ("a", script_a);
    ("b", script_b);
    ("c", script_c);
    ("algebraic", script_algebraic);
  ]

type job_method = No_resub | Method of resub_method | Rar

let method_names =
  (("none", No_resub) :: List.map (fun (n, m) -> (n, Method m)) resub_methods)
  @ [ ("resub", Method Algebraic); ("rar", Rar) ]

type settings = {
  use_filter : bool;
  sim_seed : int;
  sim_words : int;
  fault_fuel : int option;
  deadline_at : float option;
}

let default_settings =
  {
    use_filter = true;
    sim_seed = Logic_sim.Signature.default_seed;
    sim_words = Logic_sim.Signature.default_words;
    fault_fuel = None;
    deadline_at = None;
  }

let resub_command ?(settings = default_settings) ?trace ?counters ?dc meth net
    =
  let { use_filter; sim_seed; sim_words; fault_fuel; deadline_at } = settings in
  match meth with
  | Algebraic ->
    ignore
      (Resub.run ~use_complement:true ~use_filter ~sim_seed ~sim_words
         ?deadline_at ?trace ?counters ?dc net)
  | Kresub ->
    (* The constructive driver has no signature-as-filter mode to turn
       off — signatures are its candidate generator — so [use_filter]
       and [fault_fuel] (no implication work) are accepted and unused. *)
    ignore
      (Kresub.run ~sim_seed ~sim_words ?deadline_at ?trace ?counters ?dc net)
  | Basic | Ext | Ext_gdc ->
    let base =
      match meth with
      | Basic -> Booldiv.Substitute.basic_config
      | Ext -> Booldiv.Substitute.extended_config
      | Ext_gdc | Algebraic | Kresub -> Booldiv.Substitute.extended_gdc_config
    in
    let config =
      {
        base with
        Booldiv.Substitute.use_filter;
        sim_seed;
        sim_words;
        dc;
      }
    in
    ignore
      (Booldiv.Substitute.run ~config ?fault_fuel ?deadline_at ?trace
         ?counters net)
