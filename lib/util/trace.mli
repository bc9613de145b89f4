(** Structured JSON-lines trace log for observability.

    A trace is a sink for one-line JSON objects describing what a run did:
    phase starts/stops, per-unit timings, budget exhaustions and the
    degradations they caused, per-pass ["checkpoint"] pop/reset
    summaries from the fixpoint drivers,
    counter snapshots. Every event carries an ["event"] name and a
    ["t"] wall-clock timestamp; remaining fields are caller-chosen. The format is line-oriented so logs from long runs can
    be streamed, grepped, and tailed without a JSON framework.

    The {!disabled} sink makes tracing free when off: {!enabled} is a
    pattern match, {!emit} returns immediately, and hot paths are expected
    to guard field construction behind [if Trace.enabled t]. Emission is
    mutex-serialised so concurrent emitters (the daemon's worker domains)
    cannot interleave bytes. *)

type t

type value =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool
  | Raw of string
      (** spliced into the line verbatim — for embedding JSON rendered
          elsewhere (e.g. {!Counters.to_json}) *)

val disabled : t
(** The no-op sink. *)

val to_file : string -> t
(** Open (truncate) a file for tracing. @raise Sys_error like
    [open_out]. *)

val on_channel : out_channel -> t
(** Trace onto an existing channel; {!close} flushes but does not close
    it. *)

val enabled : t -> bool

val emit : t -> string -> (string * value) list -> unit
(** [emit t event fields] writes one JSON object line
    [{"event": event, "t": <now>, ...fields}]. No-op when disabled. *)

val span : t -> string -> ?fields:(string * value) list -> (unit -> 'a) -> 'a
(** [span t name f] emits [<name>.start], runs [f], and emits
    [<name>.stop] with a ["seconds"] duration — also when [f] raises
    (the stop event then carries ["raised": true]). When disabled, runs
    [f] with no other work. *)

val close : t -> unit
(** Flush and release the sink (close the channel iff {!to_file} opened
    it). Idempotent; a closed trace behaves like {!disabled}. *)

val with_file : string option -> (t -> 'a) -> ('a, string) result
(** [with_file path f] runs [f] on a trace writing to [path]
    ({!disabled} when [None]) and closes it afterwards, also when [f]
    raises. [Error] carries the [Sys_error] message when the file
    cannot be opened; [f] does not run then. *)

val lint : string -> (unit, string) result
(** Validate that one line is a single well-formed JSON value with an
    object at top level (the trace invariant). Self-contained minimal
    parser — the repo has no JSON dependency — used by the [tracecheck]
    CI gate and the tests. [Error] carries a position-tagged message. *)

val fields_of_line :
  string ->
  (string
  * [ `String of string | `Int of int | `Float of float | `Nested | `Other of string ])
  list
  option
(** Top-level members of one trace line, in order, after a successful
    {!lint} ([None] when the line does not lint). Scalar members are
    decoded; nested objects/arrays come back as [`Nested]; [true]/
    [false]/[null] as [`Other]. This is what the service checks use to
    reconstruct per-job timelines ([job_queued] → [cache_hit]/
    [cache_miss] → [job_done] chained by their ["job"] ids) from a
    daemon's [--trace] file. *)
