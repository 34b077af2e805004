(** Sound lower bounds and exact leaf evaluation for the solver.

    Terminology (DESIGN.md §16): the solver minimizes, over all total
    register-to-bank assignments, the lexicographic score
    [(MinII of the assignment, copies of the assignment)], where both
    components are computed {e exactly as the production pipeline does}
    — {!Partition.Copies.insert_loop}, then {!Partition.Driver.rebuild}
    of the rewritten body. Optimality claims are therefore
    scoped to the framework's copy-insertion policy (one shared copy per
    cross-bank (register, consuming cluster, reaching value)), which is
    the policy every heuristic under comparison also uses. *)

type leaf = {
  mii : int;     (** clustered MinII of the rewritten loop *)
  copies : int;  (** [Partition.Copies.n_copies] *)
}

val static_lower : machine:Mach.Machine.t -> Ddg.Graph.t -> int
(** Assignment-independent lower bound on any clustered pipeline's II:
    [max] of the monolithic resource bound ⌈ops / width⌉ and the
    recurrence bound of the {e original} DDG (copy insertion reroutes
    every recurrence circuit through copies of non-negative latency and
    preserves total distance, so RecMII never decreases). *)

val copies_mii : machine:Mach.Machine.t -> Partition.Copies.result -> int
(** Clustered MinII of a copy-rewritten body: {!Partition.Driver.rebuild}
    over the copy inserter's body, assignment and per-cluster loads. *)

val leaf_exact : machine:Mach.Machine.t -> loop:Ir.Loop.t -> Partition.Assign.t -> leaf
(** Score of one total assignment, byte-for-byte the numbers
    {!Partition.Driver.pipeline} would start from. Raises
    [Invalid_argument] on assignments missing a register of the body or
    naming an out-of-range bank. *)

val compare_score : int * int -> int * int -> int
(** Lexicographic order on [(mii, copies)]. *)
