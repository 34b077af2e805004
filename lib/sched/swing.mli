(** Swing modulo scheduling (Llosa, González, Ayguadé, Valero — PACT'96).

    The lifetime-sensitive pipeliner that Nystrom and Eichenberger use in
    the Section 6.3 comparison ("they use Swing Scheduling that attempts
    to reduce register requirements"). Two ideas distinguish it from
    Rau's iterative scheduler:

    - {b ordering}: operations are ordered so that each one is adjacent
      (in the DDG) to already-ordered operations, starting from the most
      constrained recurrences — so at placement time a node's scheduled
      neighbours sit on one side of it whenever possible;
    - {b placement}: a node with only scheduled predecessors scans its
      window forward from its earliest start, one with only scheduled
      successors scans {e backward} from its latest start, pulling
      definitions toward their uses. There is no eviction: if a node's
      window has no free slot, II is bumped and scheduling restarts.

    Our ordering is a connectivity-preserving approximation of Llosa's
    grouped two-direction sweep: SCCs are seeded in decreasing
    recurrence-criticality order and the frontier grows along DDG edges
    by decreasing height; the placement phase is implemented as
    specified. The result is typically the same II as Rau's scheduler
    with equal or lower {!Pressure.max_live} — the property the bench's
    scheduler comparison measures. *)

val schedule :
  ?obs:Obs.Trace.t ->
  ?cluster_of:(int -> int) ->
  ?max_ii:int ->
  machine:Mach.Machine.t ->
  mii:int ->
  Ddg.Graph.t ->
  Modulo.outcome option
(** Same contract as {!Modulo.schedule}; [placements_tried] counts
    placement attempts across all IIs. Swing never evicts and has no
    placement budget, so [evictions] and [budget_exhausted] are 0.
    [obs] traces [swing.schedule] / [swing.try_ii] spans, the
    [sched.placements] counter, and one [sched.escalate] event per
    abandoned II with {!Modulo}'s causes: ["rec_mii"], ["self_edge"], or
    ["resource"] (a request no table row satisfies, or no free slot in
    a node's window). *)

val ideal :
  ?obs:Obs.Trace.t ->
  machine:Mach.Machine.t -> Ddg.Graph.t -> Modulo.outcome option
(** Pipeline on the monolithic machine of the same width. *)
