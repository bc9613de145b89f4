type value =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool
  | Raw of string

type sink = {
  mutable channel : out_channel option;
  mutex : Mutex.t;
}

type t = sink option

let disabled = None

let to_file path =
  Some
    { channel = Some (open_out path); mutex = Mutex.create () }

let enabled = function
  | Some { channel = Some _; _ } -> true
  | Some { channel = None; _ } | None -> false

(* RFC 8259 string escaping: quotes, backslash, control characters. *)
let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let value_to_buffer b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    (* JSON has no nan/infinity; clamp to null rather than emit garbage. *)
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.6f" f)
    else Buffer.add_string b "null"
  | String s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Raw json -> Buffer.add_string b json

let emit t event fields =
  match t with
  | None | Some { channel = None; _ } -> ()
  | Some sink -> (
    let b = Buffer.create 128 in
    Buffer.add_string b "{\"event\": \"";
    Buffer.add_string b (escape event);
    Buffer.add_string b (Printf.sprintf "\", \"t\": %.6f" (Unix.gettimeofday ()));
    List.iter
      (fun (key, v) ->
        Buffer.add_string b ", \"";
        Buffer.add_string b (escape key);
        Buffer.add_string b "\": ";
        value_to_buffer b v)
      fields;
    Buffer.add_string b "}\n";
    Mutex.lock sink.mutex;
    (match sink.channel with
    | Some oc -> output_string oc (Buffer.contents b)
    | None -> ());
    Mutex.unlock sink.mutex)

let span t name ?(fields = []) f =
  match t with
  | None | Some { channel = None; _ } -> f ()
  | Some _ ->
    emit t (name ^ ".start") fields;
    let start = Unix.gettimeofday () in
    let raised = ref true in
    Fun.protect
      ~finally:(fun () ->
        let seconds = Unix.gettimeofday () -. start in
        emit t (name ^ ".stop")
          (fields
          @ (("seconds", Float seconds)
            :: (if !raised then [ ("raised", Bool true) ] else []))))
      (fun () ->
        let result = f () in
        raised := false;
        result)

let close t =
  match t with
  | None -> ()
  | Some sink ->
    Mutex.lock sink.mutex;
    (match sink.channel with
    | Some oc ->
      close_out oc;
      sink.channel <- None
    | None -> ());
    Mutex.unlock sink.mutex

let with_file path f =
  match Option.fold ~none:disabled ~some:to_file path with
  | exception Sys_error msg -> Error msg
  | t -> Ok (Fun.protect ~finally:(fun () -> close t) (fun () -> f t))

(* --- Minimal JSON syntax checker (for the tracecheck gate) ------------- *)

exception Bad of int * string

let lint line =
  let n = String.length line in
  let fail i msg = raise (Bad (i, msg)) in
  let rec skip_ws i =
    if i < n && (line.[i] = ' ' || line.[i] = '\t') then skip_ws (i + 1) else i
  in
  let rec value i =
    let i = skip_ws i in
    if i >= n then fail i "value expected"
    else
      match line.[i] with
      | '{' -> obj (i + 1)
      | '[' -> arr (i + 1)
      | '"' -> string_lit (i + 1)
      | 't' -> keyword i "true"
      | 'f' -> keyword i "false"
      | 'n' -> keyword i "null"
      | '-' | '0' .. '9' -> number i
      | c -> fail i (Printf.sprintf "unexpected %C" c)
  and keyword i kw =
    if i + String.length kw <= n && String.sub line i (String.length kw) = kw
    then i + String.length kw
    else fail i ("expected " ^ kw)
  and number i =
    let j = if i < n && line.[i] = '-' then i + 1 else i in
    let k = ref j in
    while
      !k < n
      && (match line.[!k] with
         | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
         | _ -> false)
    do
      incr k
    done;
    if !k = j then fail i "digits expected"
    else if
      (* JSON forbids leading zeros: 0 and 0.5 are fine, 01 is not. *)
      !k > j + 1
      && line.[j] = '0'
      && match line.[j + 1] with '0' .. '9' -> true | _ -> false
    then fail i "leading zero in number"
    else
      match float_of_string_opt (String.sub line i (!k - i)) with
      | Some _ -> !k
      | None -> fail i "malformed number"
  and string_lit i =
    (* [i] is just past the opening quote. *)
    if i >= n then fail i "unterminated string"
    else
      match line.[i] with
      | '"' -> i + 1
      | '\\' ->
        if i + 1 >= n then fail i "dangling escape"
        else (
          match line.[i + 1] with
          | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> string_lit (i + 2)
          | 'u' ->
            if
              i + 5 < n
              && (let hex c =
                    match c with
                    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                    | _ -> false
                  in
                  hex line.[i + 2] && hex line.[i + 3] && hex line.[i + 4]
                  && hex line.[i + 5])
            then string_lit (i + 6)
            else fail i "bad \\u escape"
          | c -> fail i (Printf.sprintf "bad escape %C" c))
      | c when Char.code c < 0x20 -> fail i "control character in string"
      | _ -> string_lit (i + 1)
  and obj i =
    let i = skip_ws i in
    if i < n && line.[i] = '}' then i + 1
    else
      let rec member i =
        let i = skip_ws i in
        if i >= n || line.[i] <> '"' then fail i "object key expected"
        else
          let i = string_lit (i + 1) in
          let i = skip_ws i in
          if i >= n || line.[i] <> ':' then fail i "':' expected"
          else
            let i = value (i + 1) in
            let i = skip_ws i in
            if i < n && line.[i] = ',' then member (i + 1)
            else if i < n && line.[i] = '}' then i + 1
            else fail i "',' or '}' expected"
      in
      member i
  and arr i =
    let i = skip_ws i in
    if i < n && line.[i] = ']' then i + 1
    else
      let rec element i =
        let i = value i in
        let i = skip_ws i in
        if i < n && line.[i] = ',' then element (i + 1)
        else if i < n && line.[i] = ']' then i + 1
        else fail i "',' or ']' expected"
      in
      element i
  in
  match
    let i = skip_ws 0 in
    if i >= n || line.[i] <> '{' then fail i "top-level object expected";
    let i = value i in
    let i = skip_ws i in
    if i <> n then fail i "trailing bytes"
  with
  | () -> Ok ()
  | exception Bad (i, msg) -> Error (Printf.sprintf "at %d: %s" i msg)

(* Flat field extraction on top of the lint: enough structure awareness
   to pull the scalar members out of one event line (nested objects and
   arrays are skipped), so checks can reconstruct e.g. per-job timelines
   from a daemon trace without a JSON dependency. *)
let fields_of_line line =
  match lint line with
  | Error _ -> None
  | Ok () ->
    let n = String.length line in
    let rec skip_ws i =
      if i < n && (line.[i] = ' ' || line.[i] = '\t') then skip_ws (i + 1)
      else i
    in
    (* The line linted, so scanning can assume well-formed syntax. *)
    let string_end i =
      let rec go i =
        match line.[i] with
        | '"' -> i
        | '\\' -> go (i + 2)
        | _ -> go (i + 1)
      in
      go i
    in
    let rec value_end i =
      let i = skip_ws i in
      match line.[i] with
      | '"' -> string_end (i + 1) + 1
      | '{' -> nest_end (i + 1) 1 '{' '}'
      | '[' -> nest_end (i + 1) 1 '[' ']'
      | _ ->
        let rec go i =
          if i >= n then i
          else
            match line.[i] with
            | ',' | '}' | ']' | ' ' | '\t' -> i
            | _ -> go (i + 1)
        in
        go i
    and nest_end i depth opener closer =
      (* Strings inside the nest may contain brackets; skip them whole. *)
      if depth = 0 then i
      else
        match line.[i] with
        | '"' -> nest_end (string_end (i + 1) + 1) depth opener closer
        | c when c = opener -> nest_end (i + 1) (depth + 1) opener closer
        | c when c = closer -> nest_end (i + 1) (depth - 1) opener closer
        | _ -> nest_end (i + 1) depth opener closer
    in
    let unescape s =
      let b = Buffer.create (String.length s) in
      let rec go i =
        if i < String.length s then
          if s.[i] = '\\' && i + 1 < String.length s then begin
            (match s.[i + 1] with
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | c -> Buffer.add_char b c);
            go (i + 2)
          end
          else begin
            Buffer.add_char b s.[i];
            go (i + 1)
          end
      in
      go 0;
      Buffer.contents b
    in
    let fields = ref [] in
    let rec members i =
      let i = skip_ws i in
      if line.[i] = '}' then ()
      else begin
        (* key *)
        let kstart = i + 1 in
        let kend = string_end kstart in
        let key = unescape (String.sub line kstart (kend - kstart)) in
        let i = skip_ws (kend + 1) in
        (* ':' *)
        let i = skip_ws (i + 1) in
        let vend = value_end i in
        let raw = String.sub line i (vend - i) in
        let v =
          if raw <> "" && raw.[0] = '"' then
            `String (unescape (String.sub raw 1 (String.length raw - 2)))
          else if raw <> "" && (raw.[0] = '{' || raw.[0] = '[') then `Nested
          else
            match int_of_string_opt raw with
            | Some k -> `Int k
            | None -> (
              match float_of_string_opt raw with
              | Some f -> `Float f
              | None -> `Other raw)
        in
        fields := (key, v) :: !fields;
        let i = skip_ws vend in
        if line.[i] = ',' then members (i + 1)
      end
    in
    let start = skip_ws 0 in
    members (start + 1);
    Some (List.rev !fields)
