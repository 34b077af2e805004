(** Rau's iterative modulo scheduling (Micro-27, 1994) — the paper's
    software pipeliner.

    For a candidate II (starting at MinII), operations are scheduled in
    height-priority order (height descending, op id ascending). Each op
    gets the first slot with free resources in [start, start + II - 1],
    where [estart] is the earliest cycle its scheduled predecessors
    allow and [start] is
    [estart] on the op's first placement at this II and
    [max estart (last + 1)] when it is re-placed after an eviction
    ([last] being the cycle it last held), so a re-placed op never
    returns to the slot it was evicted from. When no slot in the window
    has room the op is force-placed at [start] and conflicting ops
    (resource holders, plus any successor whose dependence became
    violated) are evicted and rescheduled. A budget of
    [budget_ratio × n_ops] placements bounds the effort per II; on
    exhaustion II is bumped and everything restarts, exactly as Rau
    specifies.

    The scheduler reads the DDG's rows directly ({!Ddg.Graph}: heights,
    predecessor and successor rows as int arrays, in the documented row
    order) and keeps its per-II state — cycle (unset while
    unscheduled), last cycle, priority order and position — in arrays
    indexed by the DDG's nodes; {!Restab} is its only reservation
    table. *)

type outcome = {
  kernel : Kernel.t;
  ii : int;           (** achieved initiation interval *)
  mii : int;          (** the lower bound scheduling started from *)
  placements_tried : int;  (** total placement steps across all IIs (budget spent) *)
  evictions : int;    (** ops unscheduled to make room, across all IIs *)
  iis_tried : int;    (** candidate IIs attempted, including the achieved one *)
  budget_exhausted : int;  (** candidate IIs abandoned on budget exhaustion *)
}

val schedule :
  ?obs:Obs.Trace.t ->
  ?cluster_of:(int -> int) ->
  ?budget_ratio:int ->
  ?max_ii:int ->
  machine:Mach.Machine.t ->
  mii:int ->
  Ddg.Graph.t ->
  outcome option
(** [cluster_of] as in {!List_sched.schedule} (defaults to cluster 0,
    multi-cluster machines must pass it). [budget_ratio] defaults to 10.
    [max_ii] defaults to {!Ddg.Minii.upper_bound} of the DDG; [None] is
    returned only if no II up to that bound yields a schedule (impossible
    for well-formed DDGs unless resources are unsatisfiable).

    [obs] (default off) traces one [modulo.schedule] span with a
    [modulo.try_ii] child per candidate II, feeds the [sched.placements]
    counter, and emits [sched.evict] / [sched.escalate] events (which
    tally [sched.evictions], [sched.ii_escalations] and
    [sched.budget_exhausted]). *)

val schedule_at :
  ?obs:Obs.Trace.t ->
  ?cluster_of:(int -> int) ->
  ?budget_ratio:int ->
  machine:Mach.Machine.t ->
  ii:int ->
  Ddg.Graph.t ->
  outcome option
(** One attempt at exactly [ii] — {!schedule} with escalation disabled
    ([mii = max_ii = ii]). [None] means no schedule was found at that II
    within the budget; nothing is implied about other IIs. The exact
    solver uses this to realize a witness at a proven lower bound. *)

val clustered_mii :
  machine:Mach.Machine.t ->
  ops_per_cluster:int array ->
  copies_per_cluster:int array ->
  Ddg.Graph.t ->
  int
(** MinII of a clustered pipeline: [max] of the cluster-aware resource
    bound ({!Ddg.Minii.res_mii_clustered} over the given per-cluster op
    and copy loads) and the recurrence bound of the rebuilt DDG. The
    single definition both {!Partition.Driver.pipeline} and the exact
    solver's leaf evaluation start from, so their MII arithmetic cannot
    drift apart. *)

val ideal :
  ?obs:Obs.Trace.t ->
  ?budget_ratio:int -> machine:Mach.Machine.t -> Ddg.Graph.t -> outcome option
(** Software-pipeline on the monolithic single-bank machine of the same
    width: the paper's ideal pipeline whose II all degradations are
    measured against. *)
