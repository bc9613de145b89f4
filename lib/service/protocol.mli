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
  sim_seed : int option;  (** [None] = the engine default *)
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
(** Script ["a"], method ["ext"], cache on, no seed/budget/deadline
    override — the CLI's defaults. *)

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

val decode_response : string -> (response, string) result

val write_frame : Unix.file_descr -> string -> unit
(** Write one frame (blocking, restarts on [EINTR]). *)

val send_request : Unix.file_descr -> request -> unit
(** [write_frame fd (encode_request r)], with the length prefix and the
    payload built in one buffer: the BLIF text is copied once. *)

val send_response : Unix.file_descr -> response -> unit
(** One frame holding the response, built the same way. *)

(** Frame reader over one socket, for the daemon's select loop and for
    clients alike. It reads into a buffer it owns and reuses for the
    life of the connection — grown only when a frame needs more room,
    its unconsumed bytes moved to the front only when they stand in
    the way — and hands out each frame as one string copy. An
    oversized declared length surfaces as soon as its header arrives,
    before any of the payload is buffered. *)
module Reader : sig
  type t

  val create : ?max_bytes:int -> Unix.file_descr -> t
  (** A reader that owns no bytes yet; frames declaring more than
      [max_bytes] (default {!default_max_frame}) are refused. *)

  val fill : t -> bool
  (** One [read] from the descriptor into the buffer (restarted on
      [EINTR]); [false] at end of stream. Other errors, [EAGAIN] on a
      non-blocking or timed-out socket among them, propagate. *)

  val next : t -> [ `Frame of string | `Await | `Oversized of int ]
  (** Pop the next complete buffered frame, if any; reads nothing.
      [`Oversized] reports the declared length; the reader is poisoned
      (it answers [`Await] from then on) and the connection should be
      refused and closed. *)
end

val read_frame : Reader.t -> string option
(** Blocking read of the next frame: {!Reader.next}, calling
    {!Reader.fill} until a frame is complete. [None] on a clean end of
    stream between frames. @raise Frame_error on truncation or an
    oversized declared length. *)
