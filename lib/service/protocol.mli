(** The rarsubd wire protocol: length-prefixed frames of key-value text.

    A connection carries a sequence of request/response exchanges. Every
    message is one {e frame}: a 4-byte big-endian unsigned payload
    length followed by that many payload bytes. The payload itself is
    line-oriented text — a magic line [rarsub 1 <kind>], header lines
    [<key> <value>], a blank line, then the body (BLIF text for jobs and
    results, a message for refusals) — so frames can be inspected with
    [xxd] while the framing stays binary-safe and self-delimiting.

    Frames larger than the receiver's limit are rejected {e from the
    header alone}, before any payload is buffered: a client cannot make
    the daemon allocate an oversized buffer by declaring a huge length.
    Decoding is strict — unknown or duplicated header keys, a missing
    magic line, or an unparsable value all produce [Error]s the server
    answers with a clean [Refused] reply instead of dying. *)

exception Frame_error of string
(** Raised by the blocking frame reader on a truncated or oversized
    frame (the stream is unusable afterwards). *)

val default_max_frame : int
(** 16 MiB — generous for BLIF text while bounding what one client can
    make the daemon buffer. *)

type request = {
  script : string;  (** a name in {!Synth.Script.scripts}, e.g. ["a"] *)
  meth : string;  (** a name in {!Synth.Script.method_names}, e.g. ["ext"] *)
  use_filter : bool;
  sim_seed : int option;  (** [None] = the engine default *)
  sim_words : int option;
      (** signature vector size in 64-bit words; [None] = the engine
          default (8 = 512 bits). Output-relevant, so part of the
          daemon's cache key. *)
  fault_budget : int option;
  deadline : float option;  (** relative seconds, applied at job start *)
  use_cache : bool;  (** [false] bypasses the daemon's result cache *)
  blif : string;  (** the circuit, as BLIF text *)
  exdc : string option;
      (** external don't-care section ([.exdc ...]) as BLIF text. On the
          wire it travels appended to the body after [blif], with an
          [exdc-bytes <n>] header recording the split, so neither text
          needs escaping. Folded into the daemon's cache key: a job with
          a view never shares a cached result with one without. *)
}

val default_request : blif:string -> request
(** Script ["a"], method ["ext"], filter/cache on, no
    seed/budget/deadline override — the CLI's defaults. *)

type response =
  | Result of {
      blif : string;
          (** optimised circuit, byte-identical to [rarsub optimize -f]
              on the request's [blif] (and [exdc]) *)
      literals : int;  (** factored-literal count of [blif] *)
      cache_hit : bool;
      counters : string;  (** {!Rar_util.Counters.to_json} snapshot *)
    }
  | Refused of string  (** the job was not run; the daemon stays up *)

val encode_request : request -> string

val decode_request : string -> (request, string) result

val encode_response : response -> string

val decode_response : string -> (response, string) result

val write_frame : Unix.file_descr -> string -> unit
(** Write one frame (blocking, restarts on [EINTR]). *)

val read_frame : ?max_bytes:int -> Unix.file_descr -> string option
(** Blocking read of one frame; [None] on clean EOF before the first
    header byte. @raise Frame_error on truncation or an oversized
    declared length. Used by clients; the server reads incrementally
    through {!Reader}. *)

(** Incremental frame decoder for the server's select loop: bytes go in
    as they arrive, complete frames come out, and an oversized declared
    length surfaces as soon as its header does. *)
module Reader : sig
  type t

  val create : ?max_bytes:int -> unit -> t

  val push : t -> string -> unit
  (** Append raw bytes received from the socket. *)

  val next : t -> [ `Frame of string | `Await | `Oversized of int ]
  (** Pop the next complete frame, if any. [`Oversized] reports the
      declared length; the reader is poisoned and the connection should
      be refused and closed. *)
end
