module Network = Logic_network.Network
module Blif = Logic_network.Blif
module Dont_care = Logic_network.Dont_care
module Lit_count = Logic_network.Lit_count
module Script = Synth.Script

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* The job: script + method under one settings record                  *)
(* ------------------------------------------------------------------ *)

type spec = {
  script : string;
  meth : Script.job_method;
  settings : Script.settings;
  deadline : float option;
}

let spec_of_request (r : Protocol.request) =
  match
    ( List.mem_assoc r.script Script.scripts,
      List.assoc_opt r.meth Script.method_names )
  with
  | false, _ -> Error (Printf.sprintf "unknown script %S" r.script)
  | true, None -> Error (Printf.sprintf "unknown method %S" r.meth)
  | true, Some meth ->
    let d = Script.default_settings in
    Ok
      {
        script = r.script;
        meth;
        deadline = r.deadline;
        settings =
          {
            d with
            use_filter = r.use_filter;
            sim_seed = Option.value r.sim_seed ~default:d.sim_seed;
            sim_words = Option.value r.sim_words ~default:d.sim_words;
            fault_fuel = r.fault_budget;
          };
      }

let anchored spec =
  {
    spec.settings with
    deadline_at =
      Option.map (fun s -> Unix.gettimeofday () +. s) spec.deadline;
  }

let run ?(trace = Rar_util.Trace.disabled) ?counters ?dc
    ?(on_script = fun _ _ -> ()) spec net =
  let (), seconds =
    Rar_util.Stopwatch.time (fun () ->
        Script.run ~trace net (List.assoc spec.script Script.scripts))
  in
  on_script net seconds;
  match spec.meth with
  | No_resub -> ()
  | Rar -> ignore (Rewiring.Rar.optimize net)
  | Method meth ->
    Script.resub_command ~settings:(anchored spec) ~trace ?counters ?dc meth
      net

let serialise ?dc net =
  match dc with
  | None -> Blif.to_string net
  | Some dc -> Blif.to_string_dc net dc

(* ------------------------------------------------------------------ *)
(* Warm per-worker caches                                              *)
(* ------------------------------------------------------------------ *)

(* Small LRU maps: the daemon serves repeat and near-repeat traffic, so
   a handful of live circuits per worker covers it; anything colder
   falls back to a re-parse. *)
type 'a lru = {
  slots : (string, 'a * int ref) Hashtbl.t;
  capacity : int;
  mutable clock : int;
}

let lru_create capacity = { slots = Hashtbl.create 17; capacity; clock = 0 }

let lru_find l key =
  match Hashtbl.find_opt l.slots key with
  | None -> None
  | Some (v, stamp) ->
    l.clock <- l.clock + 1;
    stamp := l.clock;
    Some v

let lru_add l key v =
  if not (Hashtbl.mem l.slots key) then begin
    if Hashtbl.length l.slots >= l.capacity then begin
      let victim = ref None in
      Hashtbl.iter
        (fun k (_, stamp) ->
          match !victim with
          | Some (_, best) when best <= !stamp -> ()
          | _ -> victim := Some (k, !stamp))
        l.slots;
      match !victim with
      | Some (k, _) -> Hashtbl.remove l.slots k
      | None -> ()
    end;
    l.clock <- l.clock + 1;
    Hashtbl.replace l.slots key (v, ref l.clock)
  end

type warm = {
  (* raw request BLIF text ->
     (canonical form, pristine parsed network, inline [.exdc] view) *)
  parsed : (string * Network.t * Logic_network.Dont_care.t) lru;
  (* canonical-digest ^ script -> network snapshot after the script ran *)
  scripted : Network.t lru;
}

let create_warm () = { parsed = lru_create 8; scripted = lru_create 16 }

(* ------------------------------------------------------------------ *)
(* Preparation: validation, parsing, cache identity                    *)
(* ------------------------------------------------------------------ *)

type prepared = {
  spec : spec;
  pristine : Network.t;  (* never mutated; jobs run on copies *)
  canonical_digest : string;
  key : string option;
  dc : Dont_care.t option;
}

let prepare ?warm (request : Protocol.request) =
  let* spec = spec_of_request request in
  let* canonical, pristine, inline_dc =
    match Option.bind warm (fun w -> lru_find w.parsed request.blif) with
    | Some hit -> Ok hit
    | None -> (
      match Blif.parse_dc request.blif with
      | net, inline_dc ->
        let hit = (Blif.to_string net, net, inline_dc) in
        Option.iter (fun w -> lru_add w.parsed request.blif hit) warm;
        Ok hit
      | exception Blif.Parse_error { line; message } ->
        Error (Printf.sprintf "blif:%d: %s" line message))
  in
  let* dc =
    (* The effective view is the body's inline [.exdc] section plus
       the [exdc] field; the warm copy is never mutated. *)
    match Option.map (Blif.parse_exdc pristine) request.exdc with
    | extra ->
      let dc = Dont_care.copy inline_dc in
      Option.iter (Dont_care.merge dc) extra;
      Ok (if Dont_care.is_empty dc then None else Some dc)
    | exception Blif.Parse_error { line; message } ->
      Error (Printf.sprintf "exdc:%d: %s" line message)
    | exception Invalid_argument message ->
      Error (Printf.sprintf "exdc: %s" message)
  in
  let key =
    (* A wall-clock deadline can degrade the run nondeterministically;
       such outputs must never be served to a later job. Every resolved
       setting that can change the output bytes is part of the
       identity, so two spellings of one job (an alias method name, an
       explicit default seed) share a slot. The don't-care view enters
       through its canonical section text, so a DC job never shares a
       slot with a plain one (and two spellings of the same view share
       theirs). *)
    match spec.deadline with
    | Some _ -> None
    | None ->
      let s = spec.settings in
      Some
        (Printf.sprintf
           "%s\x00%s\x00%s\x00filter=%b seed=%d words=%d fuel=%s\x00%s"
           canonical spec.script
           (fst (List.find (fun (_, m) -> m = spec.meth) Script.method_names))
           s.use_filter s.sim_seed s.sim_words
           (match s.fault_fuel with Some f -> string_of_int f | None -> "none")
           (match dc with
           | None -> ""
           | Some dc -> Blif.exdc_to_string pristine dc))
  in
  let canonical_digest = Digest.to_hex (Digest.string canonical) in
  Ok { spec; pristine; canonical_digest; key; dc }

let cache_key p = p.key

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let execute ?warm p =
  (* A warm post-script snapshot stands in for the script. *)
  let scripted_key = p.canonical_digest ^ "\x00" ^ p.spec.script in
  let net, spec, on_script =
    match Option.bind warm (fun w -> lru_find w.scripted scripted_key) with
    | Some snapshot ->
      (Network.copy snapshot, { p.spec with script = "none" }, None)
    | None ->
      ( Network.copy p.pristine,
        p.spec,
        Option.map
          (fun w net _ -> lru_add w.scripted scripted_key (Network.copy net))
          warm )
  in
  let counters = Rar_util.Counters.create () in
  run ~counters ?dc:p.dc ?on_script spec net;
  {
    Cache.blif = serialise ?dc:p.dc net;
    literals = Lit_count.factored net;
    counters = Rar_util.Counters.to_json counters;
  }

let run_cold request =
  Result.map (fun p -> execute p) (prepare request)
