(** Liveness analysis.

    Straight-line liveness is a single backward pass over bit rows; loop bodies wrap
    around (a register read before it is redefined is live across the
    back edge); functions run the classic iterative dataflow over the
    CFG. *)

type dense = {
  regs : Ir.Vreg.Dense.t;
      (** every register of the ops and of [live_out], numbered in
          [Ir.Vreg.compare] order *)
  ops : Ir.Op.t array;
  defs : int array array;  (** op [i]'s definitions, by number *)
  uses : int array array;  (** op [i]'s uses, by number *)
  before : Util.Bitrow.t array;
      (** [length ops + 1] rows over the numbers: row [i] holds the
          registers live immediately {e before} op [i]; the last row is
          [live_out] *)
}

val dense : Ir.Op.t list -> live_out:Ir.Vreg.Set.t -> dense
(** The single backward pass over bit rows that register allocation
    runs: the registers are numbered once, and each op's row is the row
    after it, minus its definitions, plus its uses. *)

val backward : Ir.Op.t list -> live_out:Ir.Vreg.Set.t -> Ir.Vreg.Set.t array
(** [backward ops ~live_out] returns, for each position [i], the set of
    registers live immediately {e before} op [i] (the rows of {!dense}
    as sets, without the last). Index [length ops] would be [live_out];
    position 0 is the block's live-in. *)

val live_in : Ir.Op.t list -> live_out:Ir.Vreg.Set.t -> Ir.Vreg.Set.t

val loop_live_out : Ir.Loop.t -> Ir.Vreg.Set.t
(** What is live at the bottom of a loop body: the declared
    [Loop.live_out], every register carried into the next iteration
    (used before redefinition), and loop invariants (live throughout). *)

val func_live_out : Ir.Func.t -> string -> Ir.Vreg.Set.t
(** Per-block live-out via iterative dataflow over the function's CFG
    (exit blocks have empty live-out). Results are computed once per
    function and cached per call — call through a closure when querying
    many blocks: [let lo = func_live_out f in lo "b1"]. *)
