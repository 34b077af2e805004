(** The heuristic-vs-optimal gap study: how close the greedy RCG
    partitioner gets to provably optimal bank assignments.

    Over a {e slice} of the suite — every loop with at most
    {!Solve.slice_max_vregs} symbolic registers, where exhaustive search
    is tractable — and the paper's three geometries (2×8, 4×4, 8×2,
    under the embedded copy model unless asked otherwise), each loop is compiled twice: once
    through the production greedy pipeline, once through the exact
    solver (warm-started with the greedy assignment). The per-geometry
    aggregation feeds Table 3 of [rbp report].

    Determinism: tasks fan out over {!Engine.Pool} and are folded in
    submission order, so every number is byte-identical across [-j]
    levels; the solver itself is node-budgeted, not clock-budgeted. *)

type entry = {
  loop_name : string;
  n_regs : int;
  greedy_ii : int;      (** achieved clustered II of the greedy pipeline; 0 if it failed *)
  greedy_copies : int;
  solve : Solve.t;
}

type geometry = {
  label : string;
      (** ["2x8"] — clusters × FUs per cluster — under the embedded copy
          model; ["2x8 copy-unit"] under the copy-unit model *)
  clusters : int;
  entries : entry list; (** slice order *)
}

type row = {
  label : string;
  loops : int;          (** slice size *)
  optimal : int;        (** proven [Optimal] *)
  bound : int;          (** completed but demoted to [Bound] *)
  exhausted : int;      (** budget ran out *)
  greedy_optimal : int;
      (** loops where greedy matched a proven optimum on both II and copies *)
  mean_greedy_ii : float;  (** over the [Optimal] loops only, so the two *)
  mean_exact_ii : float;   (** means compare like with like *)
  mean_greedy_copies : float;
  mean_exact_copies : float;
}

val geometries : (string * int) list
(** [[("2x8", 2); ("4x4", 4); ("8x2", 8)]]. *)

val slice : ?seed:int -> ?n:int -> unit -> Ir.Loop.t list
(** The qualifying suite loops among the first [n] (default: whole
    suite): at most {!Solve.slice_max_vregs} symbolic registers. *)

val one :
  ?budget:int -> cancel:Engine.Cancel.t -> machine:Mach.Machine.t -> Ir.Loop.t -> entry
(** Greedy pipeline + exact solve (greedy-seeded) of one loop on one
    machine — the per-task body of {!run}, exposed for [rbp exact LOOP]. *)

val run :
  ?budget:int ->
  ?cancel:Engine.Cancel.t ->
  ?jobs:int ->
  ?seed:int ->
  ?n:int ->
  ?copy_model:Mach.Machine.copy_model ->
  unit ->
  geometry list
(** One entry per (geometry, slice loop), solved with [budget] nodes
    each (default {!Solve.default_budget}) across [jobs] workers, on
    the three geometries under [copy_model] (default: embedded, the
    paper's Table 3). *)

val row_of : geometry -> row

val greedy_is_optimal : entry -> bool
(** The solver proved [Optimal] and greedy matched it on (II, copies). *)
