(** Literal-count metrics of a network.

    The paper reports literal counts "in factored form" (its footnote 1);
    {!factored} is that metric: the sum over logic nodes of the
    factored-form literal count of the node's cover. {!flat} is the plain
    SOP literal count, useful for value functions inside the synthesis
    commands. *)

val flat : Network.t -> int

val factored : Network.t -> int

val factored_delta : Network.t -> Network.t -> int
(** [factored_delta before after] is [factored before - factored after],
    counted only on the ids whose covers differ physically: a try-on-a-
    copy attempt ({!Network.copy}, then mutate the copy) pays for the
    nodes it changed, not for the whole network. *)

val node_flat : Network.t -> Network.node_id -> int

val node_factored : Network.t -> Network.node_id -> int
