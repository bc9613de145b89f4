(** Factored forms and factored-form literal counting.

    All literal counts reported by the experiment harness are "in factored
    form", matching the paper's footnote 1. The factoring is a quick-factor
    style recursion: divide by the best literal or level-0 kernel and factor
    quotient, divisor and remainder recursively. *)

type t =
  | Const of bool
  | Lit of Literal.t
  | And of t list
  | Or of t list

val of_cover : Cover.t -> t
(** Factored form of a cover. *)

val literal_count : t -> int
(** Number of literal leaves. *)

val count : Cover.t -> int
(** [literal_count (of_cover f)] — never larger than the flat SOP literal
    count. Memoised per domain on the cover ({!Cover_memo}). *)

val eval : (int -> bool) -> t -> bool

val to_string : ?names:(int -> string) -> t -> string
(** Parenthesised infix form, e.g. ["a(b + c) + d"]. *)
