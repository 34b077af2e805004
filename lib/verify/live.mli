(** Minimal liveness, written from the dataflow definitions.

    The verifier must not trust the producers it checks, so it carries
    its own liveness rather than reusing [Regalloc.Liveness] (which the
    allocator under test is built on); only the bit-row representation
    ({!Util.Bitrow}) and the register numbering are shared. Straight-line liveness is one
    backward pass; a loop body wraps around: a register read before it
    is redefined is live across the back edge, and loop invariants are
    live throughout. *)

type t = {
  regs : Ir.Vreg.Dense.t;
      (** the registers of the ops and of [live_out], numbered in
          [Ir.Vreg.compare] order *)
  rows : Util.Bitrow.t array;
      (** [length ops + 1] rows over those numbers: row [i] holds the
          registers live immediately {e before} op [i]; the last row is
          [live_out] itself *)
}

val backward : Ir.Op.t list -> live_out:Ir.Vreg.Set.t -> t
(** One backward pass over bit rows. *)

val set : t -> int -> Ir.Vreg.Set.t
(** Row [i] as a set of registers. *)

val loop_live_out : Ir.Loop.t -> Ir.Vreg.Set.t
(** Declared live-outs, plus every register carried into the next
    iteration (read before any in-body redefinition), plus loop
    invariants (registers with no in-body definition). *)
