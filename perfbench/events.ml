(* Reading back the events the program already emits into a trace
   file ([Rar_util.Trace]). *)

type fields =
  (string
  * [ `String of string | `Int of int | `Float of float | `Nested | `Other of string ])
  list

let read path : (string * fields) list =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line -> (
          match Rar_util.Trace.fields_of_line line with
          | Some fields -> (
            match List.assoc_opt "event" fields with
            | Some (`String event) -> go ((event, fields) :: acc)
            | _ -> go acc)
          | None -> go acc)
      in
      go [])

let named events name =
  List.filter_map
    (fun (event, fields) -> if String.equal event name then Some fields else None)
    events

let float (fields : fields) key =
  match List.assoc_opt key fields with
  | Some (`Float f) -> f
  | Some (`Int i) -> float_of_int i
  | _ -> nan

let int (fields : fields) key =
  match List.assoc_opt key fields with Some (`Int i) -> i | _ -> 0

let string (fields : fields) key =
  match List.assoc_opt key fields with Some (`String s) -> s | _ -> ""
