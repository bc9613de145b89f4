(** Resource budgets for fail-soft optimisation passes.

    A budget bounds one unit of work — a fault test, a division, a whole
    resubstitution phase — by {e fuel} (an abstract step count, spent by
    the implication engine per propagation step) and/or a {e wall-clock
    deadline}. Exhaustion is {e sticky}: once a budget has run out, every
    further {!spend} or {!exhausted} reports the same {!type-reason}, so a
    degraded scan short-circuits instead of grinding through the
    remaining work one exhausted probe at a time.

    Engines deep in the stack ({!Atpg.Imply}) raise {!Exhausted} from
    their hot loops; the first API layer with a meaningful fallback
    ({!Atpg.Fault.redundant_result}, the division drivers) catches it and
    returns a typed [result] instead. The exception must never escape a
    driver — callers of the drivers only ever see [Error reason] or a
    degraded-but-valid outcome. *)

type reason =
  | Fuel  (** the step allowance ran out *)
  | Deadline  (** the wall-clock deadline passed *)

exception Exhausted of reason
(** Raised by {!spend} (and so by budgeted engines mid-propagation).
    Internal to the engine layer; see the module preamble. *)

type t

val unlimited : t
(** A budget that never exhausts. It is a shared constant: {!spend} on it
    never mutates state, so it is safe to install everywhere a caller
    passed no budget (including concurrently). *)

val create : ?fuel:int -> ?deadline_at:float -> unit -> t
(** A fresh budget with the given fuel (steps; omitted = unbounded) and
    absolute deadline ([Unix.gettimeofday] scale; omitted = none).
    Drivers that share one deadline across many per-division budgets
    compute [deadline_at] once and pass it to every {!create}. *)

val spend : ?cost:int -> t -> unit
(** Consume [cost] (default 1) fuel and occasionally poll the clock
    against the deadline (every 512 spends, so the hot path stays
    syscall-free). @raise Exhausted on either limit,
    stickily thereafter. *)

val exhausted : t -> reason option
(** The sticky state alone — no clock read, no fuel accounting. *)

val reason_to_string : reason -> string
(** ["fuel"] or ["deadline"] — the spelling used in trace events. *)
