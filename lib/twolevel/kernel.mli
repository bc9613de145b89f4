(** Kernels and co-kernels of a cover (Brayton–McMullen).

    A kernel of [f] is a cube-free quotient of [f] by a cube (the
    co-kernel). Kernels drive the [gkx]-style extraction command of the
    paper's Script C and the factoring used for literal counting. *)

val make_cube_free : Cover.t -> Cube.t * Cover.t
(** [(c, g)] where [c] is the largest cube dividing every cube of the cover
    and [g] is the cover with [c] stripped; [g] is cube-free unless it has a
    single cube. *)

val is_cube_free : Cover.t -> bool

val all : Cover.t -> (Cube.t * Cover.t) list
(** All (co-kernel, kernel) pairs, including [(1, f)] when [f] is itself
    cube-free and has at least two cubes. Duplicate kernels may appear with
    distinct co-kernels; use {!distinct_kernels} to dedupe. *)

val distinct_kernels : Cover.t -> Cover.t list
