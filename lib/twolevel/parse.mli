(** Parser for sum-of-product expressions in the paper's notation.

    Grammar (whitespace insensitive between tokens):
    {v
      cover   ::= "0" | product ("+" product)*
      product ::= literal+ | "1"
      literal ::= "!"* ident "'"*     (odd number of marks = negated)
      ident   ::= letter digit*       (e.g. a, b, x1, y23)
    v}

    Juxtaposed literals multiply: ["ab'c + d"] is a·b'·c + d. Variable
    names are interned in the supplied {!Symtab.t} so several expressions
    can share a variable space. *)

exception Syntax_error of string

val cover : Symtab.t -> string -> Cover.t
(** @raise Syntax_error on malformed input. *)

val cover_default : string -> Cover.t
(** Parse against a fresh table using the default a-z naming, so that
    ["abc"] means variables 0, 1, 2. Convenient in tests. *)
