(** Literal-count metrics of a network.

    The paper reports literal counts "in factored form" (its footnote 1);
    {!factored} is that metric: the sum over logic nodes of the
    factored-form literal count of the node's cover. {!flat} is the plain
    SOP literal count, useful for value functions inside the synthesis
    commands. *)

val flat : Network.t -> int

val factored : Network.t -> int

val attempt_gain : Network.t -> int
(** The factored literals the innermost open {!Network.attempt} has
    saved so far: [factored] when it opened less [factored] now, read
    only on the nodes it changed ({!Network.attempt_changes}).
    @raise Invalid_argument outside an attempt. *)

val node_factored : Network.t -> Network.node_id -> int
