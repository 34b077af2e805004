(** Reaching definitions with iteration-distance tracking.

    A fact maps each register to the set of definitions that may reach
    a program point, each tagged with the minimum number of back-edge
    crossings since the defining op ran: distance 0 is this iteration,
    1 the previous, and distances are capped at {!dist_cap} (the cap is
    the domain's top along that axis, giving finite height without a
    real widening). Definitions kill strongly — a loop body is a
    single strand, so a def of [r] replaces every reaching def of [r].

    This is the fact base of the independent dependence analysis
    ({!Depan}): a use of [r] at position [q] reading definition [p] at
    distance [d] is exactly a flow dependence [(p, q, d)]. *)

val dist_cap : int
(** Distances at or above the cap collapse to it (2 — the dependence
    consumers only distinguish 0, 1, "more"). *)

(** The fixpoint, held densely. The body's defined registers are
    numbered once, and every (register, defining op) pair owns one
    {e slot}: a register's slots are contiguous and in body order.
    Each fact is one byte per slot. *)
type t = private {
  regs : Ir.Vreg.Dense.t;  (** the defined registers, numbered *)
  first : int array;
      (** register number -> its first slot; one more entry ends the last *)
  def_id : int array;  (** slot -> defining op id *)
  def_pos : int array;  (** slot -> body position of the defining op *)
  before : Bytes.t array;  (** position -> the fact at its entry *)
  stats : Solver.stats;
}

val of_loop : Ir.Loop.t -> t

val stats : t -> Solver.stats

val reaching : t -> pos:int -> Ir.Vreg.t -> (int * int) list
(** Definitions of the register reaching the entry of the op at
    [pos], as [(def op id, min distance)] sorted by op id; empty for
    loop invariants (never defined in the body). *)

val distance : t -> pos:int -> int -> int
(** [distance t ~pos s]: the minimum distance at which slot [s]'s
    definition reaches the entry of the op at [pos], or [dist_cap + 1]
    when it does not reach. *)
