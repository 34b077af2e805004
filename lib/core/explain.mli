(** Decision-provenance narratives: run the pipeline under a trace and
    render the evidence ({!Obs.Events}) as a placement story.

    Three views of one traced run:

    - {!narrative}: why each register landed in its bank — RCG factor and
      edge contributions, the greedy balance penalty and per-node benefit
      vectors (with tie-breaks), every cross-bank copy's route, the
      scheduler's II escalations and eviction chains, and the
      rematerializable-value set ({!Analysis.Valrange.remat_candidates},
      the AN008 family) that bounds how many copies could be avoided by
      recomputation — the same set whose size [rbp exact LOOP] reports;
    - {!dot}: the RCG as Graphviz DOT with nodes colored by final bank;
    - {!reservation_table}: the clustered kernel as an ASCII modulo
      reservation table (slot × cluster).

    The run always uses a fake fixed-step clock, so every view is a pure
    function of the loop and machine — byte-stable across hosts. *)

type t = {
  machine : Mach.Machine.t;
  result : Partition.Driver.result;
  events : Obs.Events.t list;  (** chronological *)
}

val run :
  ?partitioner:Partition.Driver.partitioner ->
  ?scheduler:Partition.Driver.scheduler ->
  machine:Mach.Machine.t ->
  Ir.Loop.t ->
  (t, string) result
(** Pipelines the loop under a fresh deterministic trace. [Error] carries
    the stage error rendered as text. *)

val narrative : t -> string

val dot : t -> string
(** Rebuilds the RCG (deterministic, same inputs as the traced run) and
    renders it with the final bank assignment as node colors. *)

val reservation_table : t -> string
(** One row per kernel slot (cycle mod II), one column per cluster; each
    cell lists the ops issuing there as [#id:opcode], stage order. *)
