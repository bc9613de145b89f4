(** Network cleanup: the SIS [sweep] command.

    Repeatedly removes dangling logic nodes, propagates constant nodes into
    their fanouts, and inlines buffer/inverter nodes (single-literal
    covers), until a fixpoint. Output-driving nodes are preserved. *)

val run : Network.t -> int
(** Returns the number of nodes removed. *)
