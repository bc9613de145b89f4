(* Seeded mutation fuzzing of every reader that takes outside bytes.

   Each reader is fed mutants of a few valid documents: one to three
   stacked edits, each a single-bit flip, a truncation, a span deletion
   or a span duplication. Every mutant must come back as a value or as
   the reader's typed error, line-numbered where the reader numbers
   lines; any other exception is a reader bug. A network the BLIF
   readers accept must also be well formed: a reader that lets a
   duplicate through raises nothing, so only its value shows it. The
   seed and the case counts are fixed, so a run is reproducible and
   time-boxed. Mutated request frames also go to an in-process daemon,
   which must answer a valid request afterwards as it did before. *)

module Aiger = Logic_network.Aiger
module Blif = Logic_network.Blif
module Network = Logic_network.Network
module Protocol = Rar_service.Protocol
module Server = Rar_service.Server

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

(* Distinct input names, distinct output names, and every structural
   invariant {!Network.check} knows. *)
let well_formed net =
  let distinct what names =
    if List.length (List.sort_uniq String.compare names) <> List.length names
    then failwith ("accepted a repeated " ^ what ^ " name")
  in
  distinct "input" (List.map (Network.name net) (Network.inputs net));
  distinct "output" (List.map fst (Network.outputs net));
  Network.check net

let blif parse text =
  match parse text with
  | net -> well_formed net
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

(* A frame as it travels: 4-byte big-endian length, then the payload. *)
let framed payload =
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (String.length payload));
  Bytes.to_string header ^ payload

(* Send [bytes] on a fresh connection, half-close, and read until the
   daemon closes it. A daemon that neither answers nor closes within
   [timeout] seconds fails the test. *)
let abuse ~socket ~timeout bytes =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
      (* The daemon may refuse and close before reading everything. *)
      (try
         ignore (Unix.write_substring fd bytes 0 (String.length bytes));
         Unix.shutdown fd Unix.SHUTDOWN_SEND
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      let buf = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd buf 0 4096 with
        | 0 -> ()
        | _ -> drain ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Alcotest.failf "daemon neither answered nor closed in %.0f s" timeout
      in
      drain ())

(* [cases] connections, each carrying one to three mutated frames of a
   c17 job, to a daemon running jobs inline. Before and after them the
   same request draws a cache hit, whose bytes must not move, and the
   one after must come back well under a second. *)
let daemon_frames ~cases () =
  let blif = List.hd (blif_corpus ()) in
  let request = Protocol.default_request ~blif in
  let frame = framed (Protocol.encode_request request) in
  let socket = Filename.temp_file "rarsubd_fuzz" ".sock" in
  Sys.remove socket;
  let config =
    { (Server.default_config ~socket_path:socket) with Server.jobs = 1 }
  in
  Server.with_server config (fun server ->
      let ask () = Server.Client.round_trip ~timeout:5.0 ~socket request in
      ignore (ask ());
      let before = ask () in
      let rng = Random.State.make [| seed |] in
      for _ = 1 to cases do
        let frames = 1 + Random.State.int rng 3 in
        abuse ~socket ~timeout:5.0
          (String.concat "" (List.init frames (fun _ -> mutate rng frame)))
      done;
      let start = Unix.gettimeofday () in
      let after = ask () in
      let seconds = Unix.gettimeofday () -. start in
      Alcotest.(check bool)
        "reply unchanged by the abuse" true (before = after);
      if (Server.stats server).Server.refused = 0 then
        Alcotest.fail "no mutant was refused";
      if seconds > 0.25 then
        Alcotest.failf "valid request took %.3f s after the abuse" seconds)

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
               (blif (fun text -> fst (Blif.parse_dc text))));
          Alcotest.test_case "Protocol.decode_request" `Quick
            (fuzz ~cases:3000 ~corpus:(request_corpus ()) request);
        ] );
      ( "daemon",
        [ Alcotest.test_case "mutated frames" `Quick (daemon_frames ~cases:300) ]
      );
    ]
