(** Reading and writing the combinational subset of BLIF.

    Supported constructs: [.model], [.inputs], [.outputs], [.names] with
    on-set (output [1]) or off-set (output [0]) single-output cover rows,
    [\\] line continuations, [#] comments, [.end], and an optional
    external-don't-care section (see below). Latches and subcircuits
    are rejected — the paper's experiments are purely combinational.

    Continuations are strict: a trailing [\\] on the last line of the
    file is a {!Parse_error} (reported at the backslash's physical
    line), and a blank or comment-only line while a continuation is
    pending is a {!Parse_error} at that line — a continuation must be
    completed on the very next physical line. CRLF input is accepted.
    A name repeated in [.inputs] or in [.outputs] is a {!Parse_error}.

    {2 External don't cares}

    An SIS-style [.exdc] section may follow the main model body (the
    single final [.end] closes the whole file). Inside it:

    - flat [.names] tables whose inputs are all primary inputs of the
      {e main} model; the union of their onsets is the EXCDC cover
      (input patterns the environment never produces). Multi-level
      [.exdc] networks are a {!Parse_error}.
    - [.exoec PAT1 PAT2] lines (an extension) declaring two full
      output patterns — 0/1 characters in [.outputs] order —
      externally indistinguishable.

    {!parse} validates and then discards the section; use
    {!parse_dc}/{!read_file_dc} to obtain the {!Dont_care.t} view. *)

exception Parse_error of { line : int; message : string }
(** [line] is the 1-based physical line the error was detected on (the
    first line of a continued logical line; the [.names] line for table
    errors only detectable after dependency resolution). *)

val parse : string -> Network.t
(** Parse BLIF text. @raise Parse_error on malformed or unsupported
    input. *)

val parse_dc : string -> Network.t * Dont_care.t
(** Like {!parse} but also returns the external don't-care view from
    the [.exdc] section (empty view when the section is absent). *)

val read_file_dc : string -> Network.t * Dont_care.t

val parse_exdc : inputs:string list -> ?outputs:string list -> string -> Dont_care.t
(** Parse a standalone don't-care file whose first directive is
    [.exdc] (the [--exdc FILE] format): table inputs must be among
    [inputs], and [.exoec] patterns give one character per name of
    [outputs], in that order. Without [outputs] the caller uses no
    EXOEC pair, and a [.exoec] line is an error. @raise Parse_error on
    malformed input or if the text does not begin with [.exdc]. *)

val read_exdc_file :
  inputs:string list -> ?outputs:string list -> string -> Dont_care.t

val to_string : Network.t -> string
(** Serialise; reading the result back yields a functionally equivalent
    network. *)

val exdc_to_string : Network.t -> Dont_care.t -> string
(** The canonical [.exdc] section for the view: one flat table named
    [excdc] over the union support of all cubes (columns in main-model
    input order, rows in insertion order), then the [.exoec] pairs.
    Empty string for an empty view. Parsing the result back with
    {!parse_exdc} reproduces the view exactly, so [write ∘ parse] is a
    fixpoint. @raise Invalid_argument if a cube names a signal that is
    not a primary input of [net] or an EXOEC pattern is not a full
    output pattern. *)

val to_string_dc : Network.t -> Dont_care.t -> string
(** {!to_string} with the canonical [.exdc] section spliced in before
    [.end]. Byte-identical to {!to_string} when the view is empty. *)
