(* Seeded mutation fuzzing of every reader that takes outside bytes.

   Each reader is fed mutants of a few valid documents: one to three
   stacked edits, each a single-bit flip, a truncation, a span deletion
   or a span duplication. Every mutant must come back as a value or as
   the reader's typed error, line-numbered where the reader numbers
   lines; any other exception is a reader bug. The seed and the case
   counts are fixed, so a run is reproducible and time-boxed. *)

module Aiger = Logic_network.Aiger
module Blif = Logic_network.Blif
module Protocol = Rar_service.Protocol

let seed = 0x5eed

let read_file path = In_channel.with_open_bin path In_channel.input_all

let mutate rng text =
  let edit s =
    let n = String.length s in
    if n = 0 then s
    else begin
      let i = Random.State.int rng n in
      let len = 1 + Random.State.int rng (min 64 (n - i)) in
      match Random.State.int rng 4 with
      | 0 ->
        let b = Bytes.of_string s in
        Bytes.set b i
          (Char.chr (Char.code s.[i] lxor (1 lsl Random.State.int rng 8)));
        Bytes.to_string b
      | 1 -> String.sub s 0 i
      | 2 -> String.sub s 0 i ^ String.sub s (i + len) (n - i - len)
      | _ -> String.sub s 0 (i + len) ^ String.sub s i (n - i)
    end
  in
  let rec go k s = if k = 0 then s else go (k - 1) (edit s) in
  go (1 + Random.State.int rng 3) text

(* Feed [cases] mutants of the corpus to [read], which returns normally
   on a value or a typed error; report every mutant that escaped. *)
let fuzz ~cases ~corpus read () =
  let rng = Random.State.make [| seed |] in
  let corpus = Array.of_list corpus in
  let escaped = ref [] in
  for case = 1 to cases do
    let text = mutate rng corpus.(case mod Array.length corpus) in
    match read text with
    | () -> ()
    | exception e -> escaped := (case, Printexc.to_string e) :: !escaped
  done;
  match List.rev !escaped with
  | [] -> ()
  | (case, e) :: _ as all ->
    Alcotest.failf "%d of %d mutants escaped; first, case %d: %s"
      (List.length all) cases case e

let numbered line = if line < 1 then failwith "error line below 1"

let aiger text =
  match Aiger.parse text with
  | _ -> ()
  | exception Aiger.Parse_error { line; _ } -> numbered line

let blif parse text =
  match parse text with
  | _ -> ()
  | exception Blif.Parse_error { line; _ } -> numbered line

let request text =
  match Protocol.decode_request text with Ok _ | Error _ -> ()

let fixtures = "../bench/fixtures/"

let aiger_corpus () =
  List.map
    (fun f -> read_file (fixtures ^ f))
    [ "edge_shapes.aag"; "planted_small.aag"; "random_small.aag" ]

let blif_corpus () =
  List.map
    (fun name ->
      match Bench_suite.Suite.find name with
      | Some row -> Blif.to_string (Bench_suite.Suite.build row)
      | None -> assert false)
    [ "c17"; "b9" ]

let request_corpus () =
  let blif = read_file (fixtures ^ "dcrich.blif") in
  [
    Protocol.encode_request (Protocol.default_request ~blif);
    Protocol.encode_request
      {
        (Protocol.default_request ~blif) with
        meth = "resub-k";
        sim_seed = Some 11;
        fault_budget = Some 100;
        deadline = Some 2.5;
        use_cache = false;
        exdc = Some ".exdc\n.names a b dc\n11 1\n";
      };
  ]

let () =
  Alcotest.run "fuzz"
    [
      ( "readers",
        [
          Alcotest.test_case "Aiger.parse" `Quick
            (fuzz ~cases:6000 ~corpus:(aiger_corpus ()) aiger);
          Alcotest.test_case "Blif.parse" `Quick
            (fuzz ~cases:3000 ~corpus:(blif_corpus ()) (blif Blif.parse));
          Alcotest.test_case "Blif.parse_dc" `Quick
            (fuzz ~cases:3000
               ~corpus:[ read_file (fixtures ^ "dcrich.blif") ]
               (blif Blif.parse_dc));
          Alcotest.test_case "Protocol.decode_request" `Quick
            (fuzz ~cases:3000 ~corpus:(request_corpus ()) request);
        ] );
    ]
