(* A complete synthesis flow on a benchmark circuit: the paper's Script A
   starting point followed by each resubstitution algorithm, reproducing
   one row of Table II.

   Run with:  dune exec examples/script_flow.exe [circuit]      *)

module Network = Logic_network.Network
module Lit_count = Logic_network.Lit_count
module Suite = Bench_suite.Suite

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "apex7" in
  let row =
    match Suite.find name with
    | Some row -> row
    | None ->
      Printf.eprintf "unknown circuit %s; available: %s\n" name
        (String.concat ", " (List.map (fun r -> r.Suite.name) Suite.rows));
      exit 1
  in
  let net = Suite.build row in
  Printf.printf "circuit %s: %d nodes, %d factored literals\n" name
    (Network.node_count net)
    (Lit_count.factored net);

  Synth.Script.run net Synth.Script.script_a;
  Printf.printf "after Script A (eliminate; simplify): %d literals\n\n"
    (Lit_count.factored net);

  let run label command =
    let scratch = Network.copy net in
    let (), seconds = Rar_util.Stopwatch.time (fun () -> command scratch) in
    Printf.printf "  %-22s %4d literals   %.2fs   equivalent: %b\n" label
      (Lit_count.factored scratch)
      seconds
      (Logic_sim.Equiv.equivalent scratch net)
  in
  run "resub -d (algebraic)" (Synth.Script.resub_command Algebraic);
  run "basic division" (Synth.Script.resub_command Basic);
  run "extended division" (Synth.Script.resub_command Ext);
  run "extended + GDC" (Synth.Script.resub_command Ext_gdc)
