(** Solving one loop to (proven) optimality.

    [solve] runs the branch-and-bound of {!Search} over the space of
    {!Space}, realizes the incumbent into a {!Witness.t}, has
    {!Verify.Exact_check} validate every claim independently, and
    reports one of three results:

    - [Optimal w] — the search exhausted the (symmetry-reduced) space,
      so the incumbent's clustered MinII is the true minimum [B*] over
      all bank assignments and its copy count the minimum at that II;
      {e and} the realized kernel actually achieves II = [B*] with that
      copy count; {e and} the independent verifier found no errors.
      Anything less demotes the claim.
    - [Bound { lower; best }] — the search completed but the claim
      falls short of the three-part test above (typically the Rau
      scheduler achieved II > MinII). [lower] is still the proven
      minimum MinII over all assignments.
    - [Budget_exhausted { lower; best }] — node budget or cancel token
      stopped the search; [lower] degrades to the assignment-independent
      static bound, [best] is the incumbent found so far.

    Optimality is scoped to the framework's own copy-insertion policy
    and MinII definition — see {!Bounds} and DESIGN.md §16. *)

type status =
  | Optimal of Witness.t
  | Bound of { lower : int; best : Witness.t option }
  | Budget_exhausted of { lower : int; best : Witness.t option }

type t = {
  status : status;
  best_mii : int;      (** incumbent score: clustered MinII *)
  best_copies : int;   (** incumbent score: copies at that MinII *)
  stats : Search.stats;
  diags : Verify.Diag.t list;
      (** witness-validation findings (empty when no witness realized) *)
  n_regs : int;        (** decision variables (symbolic registers) *)
}
(** The remat-candidate count [rbp exact LOOP] prints next to a solve is
    not part of it, since the search never reads it: the CLI computes it
    as {!Analysis.Valrange.remat_candidates} of the original body, the
    AN008 set [rbp explain] lists, so solver report and narrative cite
    one remat set. *)

val default_budget : int
(** Search-node budget per loop (deterministic, machine-independent):
    300000 nodes. *)

val slice_max_vregs : int
(** Loops with at most this many symbolic registers qualify for the
    exact suite slice (the gap report): 12. Bell(12) ≈ 4.2M raw
    assignments; restricted growth, bounding and backjumping bring
    every qualifying suite loop under {!default_budget}. *)

val status_name : status -> string
(** ["optimal"], ["bound"] or ["budget-exhausted"]. *)

val lower : t -> int
(** The proven lower bound carried by the status. *)

val witness : t -> Witness.t option

val solve :
  ?budget:int ->
  ?cancel:(unit -> bool) ->
  ?seed_assignment:Partition.Assign.t ->
  machine:Mach.Machine.t ->
  Ir.Loop.t ->
  t
(** [seed_assignment] warm-starts the incumbent (typically the greedy
    partitioner's result, restricted to the original registers); the
    all-zero assignment is always seeded too, so a best incumbent
    exists even on immediate budget exhaustion. [cancel] is polled
    inside the search — pair it with {!Engine.Cancel.guard} for
    wall-clock deadlines (this breaks byte-determinism only when it
    actually fires; the node budget alone is fully deterministic). *)
