exception Frame_error of string

let default_max_frame = 16 * 1024 * 1024

let magic = "rarsub 1"

type request = {
  script : string;
  meth : string;
  use_filter : bool;
  sim_seed : int option;
  sim_words : int option;
  fault_budget : int option;
  deadline : float option;
  use_cache : bool;
  blif : string;
  exdc : string option;
}

let default_request ~blif =
  {
    script = "a";
    meth = "ext";
    use_filter = true;
    sim_seed = None;
    sim_words = None;
    fault_budget = None;
    deadline = None;
    use_cache = true;
    blif;
    exdc = None;
  }

type response =
  | Result of {
      blif : string;
      literals : int;
      cache_hit : bool;
      counters : string;
    }
  | Refused of string

(* ------------------------------------------------------------------ *)
(* Payload encoding: magic line, header lines, blank line, body.       *)
(* ------------------------------------------------------------------ *)

let on_off b = if b then "on" else "off"

let encode_request r =
  let b = Buffer.create (String.length r.blif + 256) in
  Buffer.add_string b (magic ^ " job\n");
  Buffer.add_string b (Printf.sprintf "script %s\n" r.script);
  Buffer.add_string b (Printf.sprintf "method %s\n" r.meth);
  Buffer.add_string b (Printf.sprintf "filter %s\n" (on_off r.use_filter));
  Buffer.add_string b (Printf.sprintf "cache %s\n" (on_off r.use_cache));
  Option.iter
    (fun s -> Buffer.add_string b (Printf.sprintf "sim-seed %d\n" s))
    r.sim_seed;
  Option.iter
    (fun w -> Buffer.add_string b (Printf.sprintf "sim-words %d\n" w))
    r.sim_words;
  Option.iter
    (fun f -> Buffer.add_string b (Printf.sprintf "fault-budget %d\n" f))
    r.fault_budget;
  Option.iter
    (fun d -> Buffer.add_string b (Printf.sprintf "deadline %.6f\n" d))
    r.deadline;
  (* The body is blif ^ exdc; the header records where the split is, so
     the BLIF text itself never needs escaping. *)
  Option.iter
    (fun e ->
      Buffer.add_string b (Printf.sprintf "exdc-bytes %d\n" (String.length e)))
    r.exdc;
  Buffer.add_char b '\n';
  Buffer.add_string b r.blif;
  Option.iter (Buffer.add_string b) r.exdc;
  Buffer.contents b

let encode_response = function
  | Result { blif; literals; cache_hit; counters } ->
    let b = Buffer.create (String.length blif + 256) in
    Buffer.add_string b (magic ^ " result\n");
    Buffer.add_string b (Printf.sprintf "literals %d\n" literals);
    Buffer.add_string b
      (Printf.sprintf "cache %s\n" (if cache_hit then "hit" else "miss"));
    Buffer.add_string b (Printf.sprintf "counters %s\n" counters);
    Buffer.add_char b '\n';
    Buffer.add_string b blif;
    Buffer.contents b
  | Refused message ->
    Printf.sprintf "%s refused\n\n%s" magic message

(* Split a payload into (magic kind, header assoc, body). Header keys
   must be unique; the first blank line ends the header. *)
let split_payload payload =
  let n = String.length payload in
  let line_end i =
    match String.index_from_opt payload i '\n' with
    | Some j -> j
    | None -> n
  in
  let first_end = line_end 0 in
  let first = String.sub payload 0 first_end in
  let kind =
    let prefix = magic ^ " " in
    if String.length first > String.length prefix
       && String.sub first 0 (String.length prefix) = prefix
    then
      Ok
        (String.sub first (String.length prefix)
           (String.length first - String.length prefix))
    else Error (Printf.sprintf "bad magic line %S" first)
  in
  match kind with
  | Error _ as e -> e
  | Ok kind ->
    let rec headers acc i =
      if i >= n then Error "missing blank line after header"
      else
        let j = line_end i in
        if j = i then
          (* blank line: body is everything after it *)
          Ok (kind, List.rev acc, String.sub payload (i + 1) (n - i - 1))
        else
          let line = String.sub payload i (j - i) in
          match String.index_opt line ' ' with
          | None -> Error (Printf.sprintf "malformed header line %S" line)
          | Some k ->
            let key = String.sub line 0 k in
            let value = String.sub line (k + 1) (String.length line - k - 1) in
            if List.mem_assoc key acc then
              Error (Printf.sprintf "duplicate header %S" key)
            else headers ((key, value) :: acc) (j + 1)
    in
    (* headers start after the magic line's newline *)
    if first_end >= n then Error "missing header"
    else headers [] (first_end + 1)

(* Strict value parsers: a refused decode must say what was wrong. *)
let bool_value key = function
  | "on" -> Ok true
  | "off" -> Ok false
  | v -> Error (Printf.sprintf "header %s: expected on|off, got %S" key v)

let int_value key v =
  match int_of_string_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "header %s: expected integer, got %S" key v)

let float_value key v =
  match float_of_string_opt v with
  | Some f when Float.is_finite f -> Ok f
  | _ -> Error (Printf.sprintf "header %s: expected number, got %S" key v)

let ( let* ) = Result.bind

let decode_request payload =
  let* kind, headers, body = split_payload payload in
  if kind <> "job" then Error (Printf.sprintf "expected a job frame, got %S" kind)
  else
    let known =
      [ "script"; "method"; "filter"; "cache"; "sim-seed";
        "sim-words"; "fault-budget"; "deadline"; "exdc-bytes" ]
    in
    match List.find_opt (fun (k, _) -> not (List.mem k known)) headers with
    | Some (k, _) -> Error (Printf.sprintf "unknown header %S" k)
    | None ->
      let get key = List.assoc_opt key headers in
      let opt parse key =
        match get key with
        | None -> Ok None
        | Some v -> Result.map Option.some (parse key v)
      in
      let dflt parse key d =
        match get key with None -> Ok d | Some v -> parse key v
      in
      let* script =
        match get "script" with
        | Some s -> Ok s
        | None -> Error "missing header \"script\""
      in
      let* meth =
        match get "method" with
        | Some s -> Ok s
        | None -> Error "missing header \"method\""
      in
      let* use_filter = dflt bool_value "filter" true in
      let* use_cache = dflt bool_value "cache" true in
      let* sim_seed = opt int_value "sim-seed" in
      let* sim_words = opt int_value "sim-words" in
      let* fault_budget = opt int_value "fault-budget" in
      let* deadline = opt float_value "deadline" in
      let* exdc_bytes = opt int_value "exdc-bytes" in
      let* blif, exdc =
        match exdc_bytes with
        | None -> Ok (body, None)
        | Some n when n < 0 || n > String.length body ->
          Error
            (Printf.sprintf
               "header exdc-bytes: %d outside the %d-byte body" n
               (String.length body))
        | Some n ->
          let cut = String.length body - n in
          Ok (String.sub body 0 cut, Some (String.sub body cut n))
      in
      Ok
        {
          script;
          meth;
          use_filter;
          sim_seed;
          sim_words;
          fault_budget;
          deadline;
          use_cache;
          blif;
          exdc;
        }

let decode_response payload =
  let* kind, headers, body = split_payload payload in
  match kind with
  | "refused" -> Ok (Refused body)
  | "result" ->
    let get key =
      match List.assoc_opt key headers with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing header %S" key)
    in
    let* literals = Result.bind (get "literals") (int_value "literals") in
    let* cache_hit =
      match get "cache" with
      | Ok "hit" -> Ok true
      | Ok "miss" -> Ok false
      | Ok v -> Error (Printf.sprintf "header cache: expected hit|miss, got %S" v)
      | Error _ as e -> e
    in
    let* counters = get "counters" in
    Ok (Result { blif = body; literals; cache_hit; counters })
  | kind -> Error (Printf.sprintf "unexpected frame kind %S" kind)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let header_length = 4

let decode_length b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let rec write_all fd b off len =
  if len > 0 then begin
    match Unix.write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* Nonblocking peer socket with a full buffer: wait for room. *)
      ignore (Unix.select [] [ fd ] [] 1.0);
      write_all fd b off len
  end

let write_frame fd payload =
  let n = String.length payload in
  let b = Bytes.create (header_length + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b header_length n;
  write_all fd b 0 (Bytes.length b)

(* Blocking exact read; [`Eof_at_start] distinguishes a clean
   end-of-stream from a truncated frame. *)
let read_exactly fd b len =
  let rec go off =
    if off >= len then `Ok
    else
      match Unix.read fd b off (len - off) with
      | 0 -> if off = 0 then `Eof_at_start else `Truncated
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_frame ?(max_bytes = default_max_frame) fd =
  let header = Bytes.create header_length in
  match read_exactly fd header header_length with
  | `Eof_at_start -> None
  | `Truncated -> raise (Frame_error "truncated frame header")
  | `Ok ->
    let len = decode_length header 0 in
    if len > max_bytes then
      raise (Frame_error (Printf.sprintf "frame of %d bytes exceeds limit" len));
    let payload = Bytes.create len in
    (match read_exactly fd payload len with
    | `Ok -> Some (Bytes.unsafe_to_string payload)
    | `Eof_at_start | `Truncated -> raise (Frame_error "truncated frame payload"))

module Reader = struct
  type t = {
    buf : Buffer.t;
    max_bytes : int;
    mutable poisoned : bool;
  }

  let create ?(max_bytes = default_max_frame) () =
    { buf = Buffer.create 4096; max_bytes; poisoned = false }

  let push t s = if not t.poisoned then Buffer.add_string t.buf s

  let next t =
    if t.poisoned then `Await
    else if Buffer.length t.buf < header_length then `Await
    else begin
      let byte i = Char.code (Buffer.nth t.buf i) in
      let len =
        (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3
      in
      if len > t.max_bytes then begin
        t.poisoned <- true;
        `Oversized len
      end
      else if Buffer.length t.buf < header_length + len then `Await
      else begin
        let frame = Buffer.sub t.buf header_length len in
        let rest =
          Buffer.sub t.buf (header_length + len)
            (Buffer.length t.buf - header_length - len)
        in
        Buffer.clear t.buf;
        Buffer.add_string t.buf rest;
        `Frame frame
      end
    end
end
