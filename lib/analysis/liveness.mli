(** Cyclic liveness over single-block loop bodies.

    The loop body is a ring: the value read by a use with no preceding
    def in the body is the previous iteration's last def, so liveness
    must close over the back edge. The analysis is the {!Solver}
    instance over the powerset of the body's registers on the reversed
    ring, with the declared [live_out] (plus nothing else — carried and
    invariant registers emerge from the fixpoint) injected at the
    bottom of the body.

    Facts are dense: the registers of the ops and of [live_out] are
    numbered once, in [Ir.Vreg.compare] order, and each fact is a
    {!Util.Bitrow} over those numbers. The lattice is the powerset
    ({!Lattice.VregSet} under a renaming), so the solver visits the
    nodes exactly as over register sets and reports the same
    {!Solver.stats}.

    The fixpoint equals the seeded single-pass answer of
    [Regalloc.Liveness.backward] (a qcheck property pins this), but is
    derived from the lattice equations alone — an independent oracle.

    MaxLive here is the *sequential-body* pressure: the number of
    registers simultaneously live at the worst program point of one
    iteration. Any schedule of the body needs at least this many
    registers in total (overlapping iterations via software pipelining
    only adds pressure), so the per-bank split is a sound lower bound
    for what each bank's allocator will face — the prediction ROADMAP
    item 5 consumes. *)

type t = {
  regs : Ir.Vreg.Dense.t;  (** the body's registers, numbered *)
  before : Util.Bitrow.t array;  (** live registers just before op [i] *)
  after : Util.Bitrow.t array;  (** live registers just after op [i] *)
  stats : Solver.stats;
}

val of_loop : Ir.Loop.t -> t

val of_ops : Ir.Op.t list -> live_out:Ir.Vreg.Set.t -> t
(** The same fixpoint over a bare body with a declared bottom-of-body
    live-out set. *)

val live_before : t -> int -> Ir.Vreg.Set.t
(** The registers live just before op [i], as a set. *)

val live_after : t -> int -> Ir.Vreg.Set.t

val max_live : t -> int
(** Maximum cardinality of any live set, over all program points. *)

val per_bank_max_live : t -> banks:int -> bank_of:(Ir.Vreg.t -> int) -> int array
(** MaxLive restricted to each bank under the given assignment;
    registers mapped outside [0 .. banks-1] are ignored. Each bank's
    maximum is taken independently (different banks may peak at
    different program points). *)

val dead_ops : ?live:t -> Ir.Loop.t -> Ir.Op.t list
(** Transitively dead operations, in body order: ops whose destination
    is not live after them, iterated to a fixpoint so a chain feeding
    only dead ops is entirely flagged. Stores and [Nop]s are never
    dead (stores are observable; nops define nothing). [live], when
    given, must be [of_loop] of the same loop: it stands in for the
    first removal round's solve. *)
