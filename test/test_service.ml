(* Tests for the resident synthesis service: protocol framing round
   trips, the bounded LRU result cache, a multi-client stress run whose
   every response must be byte-identical to a cold reference run, and
   clean rejection of malformed and oversized frames. *)

module Protocol = Rar_service.Protocol
module Cache = Rar_service.Cache
module Job = Rar_service.Job
module Server = Rar_service.Server
module Suite = Bench_suite.Suite
module Blif = Logic_network.Blif

let circuit_blif name =
  match Suite.find name with
  | Some row -> Blif.to_string (Suite.build row)
  | None -> Alcotest.failf "unknown suite row %s" name

let temp_socket () =
  let path = Filename.temp_file "rarsubd_test" ".sock" in
  Sys.remove path;
  path

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i =
    i + n <= h && (String.sub haystack i n = needle || at (i + 1))
  in
  at 0

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_roundtrip () =
  let request =
    {
      (Protocol.default_request ~blif:".model m\n.end\n") with
      Protocol.script = "b";
      meth = "basic";
      use_filter = false;
      sim_seed = Some 99;
      fault_budget = Some 1234;
      deadline = Some 1.5;
      use_cache = false;
    }
  in
  (match Protocol.decode_request (Protocol.encode_request request) with
  | Ok r -> Alcotest.(check bool) "request round trip" true (r = request)
  | Error m -> Alcotest.failf "request rejected: %s" m);
  (* The exdc section rides appended to the body behind an [exdc-bytes]
     header; it must survive the trip byte-for-byte, newlines and all. *)
  let with_exdc =
    { request with Protocol.exdc = Some ".exdc\n.names a excdc\n1 1\n" }
  in
  (match Protocol.decode_request (Protocol.encode_request with_exdc) with
  | Ok r ->
    Alcotest.(check bool) "exdc request round trip" true (r = with_exdc)
  | Error m -> Alcotest.failf "exdc request rejected: %s" m);
  let response =
    Protocol.Result
      {
        blif = ".model m\n.end\n";
        literals = 42;
        cache_hit = true;
        counters = "{\"pairs\": 7}";
      }
  in
  (match Protocol.decode_response (Protocol.encode_response response) with
  | Ok r -> Alcotest.(check bool) "response round trip" true (r = response)
  | Error m -> Alcotest.failf "response rejected: %s" m);
  (match
     Protocol.decode_response (Protocol.encode_response (Protocol.Refused "no"))
   with
  | Ok (Protocol.Refused m) -> Alcotest.(check string) "refusal text" "no" m
  | Ok _ -> Alcotest.fail "refusal decoded as a result"
  | Error m -> Alcotest.failf "refusal rejected: %s" m);
  (* Garbage and truncation are errors, not exceptions. *)
  Alcotest.(check bool)
    "garbage rejected" true
    (Result.is_error (Protocol.decode_request "what even is this"))

let test_protocol_reader_incremental () =
  let payload = Protocol.encode_request (Protocol.default_request ~blif:"x") in
  let framed =
    let len = String.length payload in
    let header = Bytes.create 4 in
    Bytes.set header 0 (Char.chr ((len lsr 24) land 0xff));
    Bytes.set header 1 (Char.chr ((len lsr 16) land 0xff));
    Bytes.set header 2 (Char.chr ((len lsr 8) land 0xff));
    Bytes.set header 3 (Char.chr (len land 0xff));
    Bytes.to_string header ^ payload
  in
  (* Feed the frame one byte at a time, twice over: the reader must
     surface each frame exactly when its last byte arrives. *)
  let reader = Protocol.Reader.create () in
  let frames = ref 0 in
  String.iter
    (fun c ->
      Protocol.Reader.push reader (String.make 1 c);
      match Protocol.Reader.next reader with
      | `Frame got ->
        incr frames;
        Alcotest.(check string) "payload intact" payload got
      | `Await -> ()
      | `Oversized _ -> Alcotest.fail "small frame flagged oversized")
    (framed ^ framed);
  Alcotest.(check int) "both frames surfaced" 2 !frames;
  (* An oversized length header poisons the connection immediately,
     before any payload bytes arrive. *)
  let tiny = Protocol.Reader.create ~max_bytes:8 () in
  Protocol.Reader.push tiny "\xff\xff\xff\xff";
  (match Protocol.Reader.next tiny with
  | `Oversized _ -> ()
  | `Frame _ | `Await -> Alcotest.fail "oversized header accepted")

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let entry blif = { Cache.blif; literals = 0; counters = "{}" }

let test_cache_hit_miss_lru () =
  let cache = Cache.create { Cache.max_entries = 512; max_bytes = 1 lsl 20 } in
  Alcotest.(check bool) "cold lookup misses" true (Cache.find cache "k" = None);
  Cache.add cache "k" (entry "body");
  (match Cache.find cache "k" with
  | Some e -> Alcotest.(check string) "hit returns the entry" "body" e.Cache.blif
  | None -> Alcotest.fail "inserted entry not found");
  let stats = Cache.stats cache in
  Alcotest.(check int) "one hit" 1 stats.Cache.hits;
  Alcotest.(check int) "one miss" 1 stats.Cache.misses;
  Alcotest.(check bool) "stats JSON lints" true
    (Rar_util.Trace.lint (Cache.to_json stats) = Ok ())

let test_cache_eviction () =
  (* 16 entries across 16 stripes: one entry per stripe budget, so a
     second insert landing on an occupied stripe must evict its LRU. *)
  let cache = Cache.create { Cache.max_entries = 16; max_bytes = 1 lsl 20 } in
  for i = 1 to 200 do
    Cache.add cache (Printf.sprintf "key%d" i) (entry "x")
  done;
  let stats = Cache.stats cache in
  Alcotest.(check int) "insertions" 200 stats.Cache.insertions;
  Alcotest.(check bool) "bounded" true (stats.Cache.entries <= 16);
  Alcotest.(check int) "evicted the rest" (200 - stats.Cache.entries)
    stats.Cache.evictions;
  (* Byte budget: an entry bigger than a whole stripe's share is not
     admitted at all. *)
  let small = Cache.create { Cache.max_entries = 64; max_bytes = 1024 } in
  Cache.add small "huge" (entry (String.make 4096 'x'));
  Alcotest.(check int) "oversized entry not admitted" 0
    (Cache.stats small).Cache.entries

(* ------------------------------------------------------------------ *)
(* Stress: concurrent clients vs cold references                       *)
(* ------------------------------------------------------------------ *)

(* Two small circuits x two methods. Every unique request's reference
   output comes from [Job.run_cold] — the [Job.run] + [Job.serialise]
   path a cold [rarsub optimize -f] run executes. *)
let stress_workload () =
  List.concat_map
    (fun name ->
      let blif = circuit_blif name in
      List.map
        (fun meth ->
          { (Protocol.default_request ~blif) with Protocol.meth })
        [ "resub"; "ext" ])
    [ "c17"; "b9" ]

let test_stress_byte_identity () =
  let workload = stress_workload () in
  let references =
    List.map
      (fun request ->
        match Job.run_cold request with
        | Ok e -> (request, e.Cache.blif)
        | Error m -> Alcotest.failf "cold reference failed: %s" m)
      workload
  in
  let clients = 8 and rounds = 2 in
  let socket = temp_socket () in
  let config = Server.default_config ~socket_path:socket in
  let stats =
    Server.with_server config (fun server ->
        let client idx () =
          (* Each client walks the workload from its own offset, so at
             any moment different clients are on different jobs — a
             mixed hit/miss interleaving rather than a lockstep sweep. *)
          let n = List.length references in
          let conn = Server.Client.connect ~timeout:120.0 socket in
          Fun.protect
            ~finally:(fun () -> Server.Client.close conn)
            (fun () ->
              List.iter
                (fun step ->
                  let request, reference =
                    List.nth references ((idx + step) mod n)
                  in
                  match Server.Client.request conn request with
                  | Protocol.Refused m ->
                    Alcotest.failf "client %d refused: %s" idx m
                  | Protocol.Result { blif; _ } ->
                    if not (String.equal blif reference) then
                      Alcotest.failf
                        "client %d: response differs from the cold run" idx)
                (List.init (rounds * n) Fun.id))
        in
        List.iter Domain.join
          (List.init clients (fun idx -> Domain.spawn (client idx)));
        Server.stats server)
  in
  let total = clients * rounds * List.length references in
  Alcotest.(check int) "every job served" total stats.Server.jobs_done;
  Alcotest.(check int) "none refused" 0 stats.Server.refused;
  match stats.Server.cache with
  | None -> Alcotest.fail "cache expected on"
  | Some c ->
    Alcotest.(check int) "every job hit or missed" total
      (c.Cache.hits + c.Cache.misses);
    (* Duplicate concurrent misses are legal (two workers may race on
       one key), but most of the traffic must be hits. *)
    Alcotest.(check bool) "misses cover the workload" true
      (c.Cache.misses >= List.length references);
    Alcotest.(check bool)
      (Printf.sprintf "mostly hits (%d/%d)" c.Cache.hits total)
      true
      (c.Cache.hits > total / 2)

(* ------------------------------------------------------------------ *)
(* Abuse: malformed and oversized frames                               *)
(* ------------------------------------------------------------------ *)

let test_frame_abuse_rejected () =
  let socket = temp_socket () in
  let config =
    { (Server.default_config ~socket_path:socket) with Server.max_frame = 4096 }
  in
  let request = List.hd (stress_workload ()) in
  Server.with_server config (fun _server ->
      (* [reason], when given, must appear in the refusal message. *)
      let expect_refusal ?reason tag send =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            send fd;
            match Protocol.read_frame fd with
            | None -> Alcotest.failf "%s: closed with no reply" tag
            | Some payload -> (
              match Protocol.decode_response payload with
              | Ok (Protocol.Refused message) -> (
                match reason with
                | Some r when not (contains message r) ->
                  Alcotest.failf "%s: refused with %S, expected %S" tag
                    message r
                | _ -> ())
              | Ok (Protocol.Result _) -> Alcotest.failf "%s: accepted" tag
              | Error m -> Alcotest.failf "%s: unreadable reply: %s" tag m))
      in
      expect_refusal "malformed" (fun fd ->
          Protocol.write_frame fd "definitely not a rarsub frame");
      expect_refusal "bad header values"
        ~reason:"header sim-words: expected integer" (fun fd ->
          Protocol.write_frame fd
            "rarsub 1 job\nscript a\nmethod ext\nsim-words banana\n\nbody");
      (* [jobs] is no longer a request header: a frame that still sends
         it gets the typed unknown-header refusal. *)
      expect_refusal "retired jobs header" ~reason:"unknown header \"jobs\""
        (fun fd ->
          Protocol.write_frame fd
            "rarsub 1 job\nscript a\nmethod ext\njobs 2\n\nbody");
      (* Nor is [memo], since the division memo is gone. *)
      expect_refusal "retired memo header" ~reason:"unknown header \"memo\""
        (fun fd ->
          Protocol.write_frame fd
            "rarsub 1 job\nscript a\nmethod ext\nmemo off\n\nbody");
      expect_refusal "oversized" (fun fd ->
          (* Header announces 1 MiB against a 4 KiB limit; the daemon
             must refuse on the header alone. *)
          ignore (Unix.write fd (Bytes.of_string "\x00\x10\x00\x00") 0 4));
      (* The daemon survived every abuse and still serves real work. *)
      match Server.Client.round_trip ~timeout:120.0 ~socket request with
      | Protocol.Result _ -> ()
      | Protocol.Refused m -> Alcotest.failf "daemon wedged after abuse: %s" m)

(* A daemon that dies mid-session must surface as a clean
   [Frame_error], not kill the client with SIGPIPE or leak a raw
   [Unix_error]. The test process itself is the signal assertion: were
   SIGPIPE not ignored on the client path, the write below would
   terminate the whole test binary. *)
let test_daemon_death_mid_session () =
  let socket = temp_socket () in
  let config = Server.default_config ~socket_path:socket in
  let server = Server.create config in
  let server_domain = Domain.spawn (fun () -> Server.serve server) in
  let request = List.hd (stress_workload ()) in
  let conn = Server.Client.connect ~timeout:120.0 socket in
  Fun.protect
    ~finally:(fun () -> Server.Client.close conn)
    (fun () ->
      (match Server.Client.request conn request with
      | Protocol.Result _ -> ()
      | Protocol.Refused m -> Alcotest.failf "live daemon refused: %s" m);
      (* Kill the daemon with the session still open ... *)
      Server.shutdown server;
      Domain.join server_domain;
      (* ... then use the dead connection. Depending on timing the
         failure is EPIPE on the write or EOF on the read; both must
         come back as [Frame_error]. *)
      match Server.Client.request conn request with
      | Protocol.Result _ | Protocol.Refused _ ->
        Alcotest.fail "request succeeded against a dead daemon"
      | exception Protocol.Frame_error _ -> ()
      | exception Unix.Unix_error (err, _, _) ->
        Alcotest.failf "raw Unix_error escaped: %s" (Unix.error_message err))

(* Deadline-carrying jobs bypass the cache in both directions. *)
let test_deadline_uncached () =
  let request =
    {
      (List.hd (stress_workload ())) with
      Protocol.deadline = Some 3600.0;
    }
  in
  (match Job.prepare request with
  | Ok p ->
    Alcotest.(check bool) "deadline jobs have no cache key" true
      (Job.cache_key p = None)
  | Error m -> Alcotest.failf "prepare failed: %s" m);
  let socket = temp_socket () in
  Server.with_server (Server.default_config ~socket_path:socket)
    (fun server ->
      let submit () =
        match Server.Client.round_trip ~timeout:120.0 ~socket request with
        | Protocol.Result { cache_hit; _ } -> cache_hit
        | Protocol.Refused m -> Alcotest.failf "refused: %s" m
      in
      Alcotest.(check bool) "first run is no hit" false (submit ());
      Alcotest.(check bool) "repeat is still no hit" false (submit ());
      match (Server.stats server).Server.cache with
      | Some c ->
        Alcotest.(check int) "nothing inserted" 0 c.Cache.insertions
      | None -> Alcotest.fail "cache expected on")

(* The don't-care view is part of a job's identity: a DC job must never
   be served a plain job's cached result (or vice versa), while two
   spellings of the same view — inline [.exdc] section vs the [exdc]
   request field — share one slot. *)
let test_dc_cache_identity () =
  let body = ".model m\n.inputs a b c\n.outputs y\n.names a b c y\n111 1\n" in
  let section = ".exdc\n.names a b excdc\n11 1\n" in
  let key request =
    match Job.prepare request with
    | Ok p -> (
      match Job.cache_key p with
      | Some k -> k
      | None -> Alcotest.fail "cacheable job expected a key")
    | Error m -> Alcotest.failf "prepare failed: %s" m
  in
  let plain = key (Protocol.default_request ~blif:(body ^ ".end\n")) in
  let via_field =
    key
      {
        (Protocol.default_request ~blif:(body ^ ".end\n")) with
        Protocol.exdc = Some section;
      }
  in
  let via_inline =
    key (Protocol.default_request ~blif:(body ^ section ^ ".end\n"))
  in
  Alcotest.(check bool)
    "DC job never shares the plain job's slot" false (plain = via_field);
  Alcotest.(check string)
    "inline section and exdc field share a slot" via_field via_inline;
  (* The key is printed from the resolved settings, so the other
     spellings of one job share a slot too: an explicit default seed or
     vector size, and the [sis] alias of [resub]. *)
  let plain_with f =
    key (f (Protocol.default_request ~blif:(body ^ ".end\n")))
  in
  List.iter
    (fun (label, f) -> Alcotest.(check string) label plain (plain_with f))
    [
      ( "explicit default seed shares a slot",
        fun r ->
          { r with Protocol.sim_seed = Some Logic_sim.Signature.default_seed }
      );
      ( "explicit default words share a slot",
        fun r ->
          { r with Protocol.sim_words = Some Logic_sim.Signature.default_words }
      );
    ];
  let resub = plain_with (fun r -> { r with Protocol.meth = "resub" }) in
  Alcotest.(check string)
    "sis and resub share a slot" resub
    (plain_with (fun r -> { r with Protocol.meth = "sis" }));
  Alcotest.(check bool)
    "another seed gets its own slot" false
    (plain = plain_with (fun r -> { r with Protocol.sim_seed = Some 7 }))

(* A DC job's reply carries the canonical [.exdc] section: it is the
   one job serialiser's output for a cold run on the same bytes, which
   is what [rarsub optimize -f ... -o] writes. *)
let test_dc_reply_carries_view () =
  let blif =
    In_channel.with_open_bin "../bench/fixtures/dcrich.blif"
      In_channel.input_all
  in
  let request = Protocol.default_request ~blif in
  let expected =
    let net, dc = Blif.parse_dc blif in
    match Job.spec_of_request request with
    | Ok spec ->
      Job.run ~dc spec net;
      Job.serialise ~dc net
    | Error m -> Alcotest.failf "spec rejected: %s" m
  in
  Alcotest.(check bool)
    "serialiser emits the section" true
    (List.mem ".exdc" (String.split_on_char '\n' expected));
  (match Job.run_cold request with
  | Ok entry ->
    Alcotest.(check string) "cold run = serialiser" expected entry.Cache.blif
  | Error m -> Alcotest.failf "cold run failed: %s" m);
  let socket = temp_socket () in
  Server.with_server (Server.default_config ~socket_path:socket) (fun _ ->
      match Server.Client.round_trip ~timeout:120.0 ~socket request with
      | Protocol.Result { blif; _ } ->
        Alcotest.(check string) "reply = serialiser" expected blif
      | Protocol.Refused m -> Alcotest.failf "refused: %s" m)

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "round trip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "incremental reader" `Quick
            test_protocol_reader_incremental;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss_lru;
          Alcotest.test_case "eviction + budgets" `Quick test_cache_eviction;
          Alcotest.test_case "don't-care view in the key" `Quick
            test_dc_cache_identity;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "8-client byte identity" `Quick
            test_stress_byte_identity;
          Alcotest.test_case "frame abuse rejected" `Quick
            test_frame_abuse_rejected;
          Alcotest.test_case "daemon death mid-session" `Quick
            test_daemon_death_mid_session;
          Alcotest.test_case "deadline jobs uncached" `Quick
            test_deadline_uncached;
          Alcotest.test_case "DC reply carries the view" `Quick
            test_dc_reply_carries_view;
        ] );
    ]
