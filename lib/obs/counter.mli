(** The counter and gauge catalog — one constructor per quantity the
    pipeline stages report, so a typo cannot silently create a new
    metric and exporters can enumerate what may appear.

    Counters accumulate across a whole {!Trace.t}; an optional string
    label adds one dimension (the bank pair for copies, the rung name
    for ladder transitions, the bank for allocator gauges).

    Cells marked {e tally} count a decision event: {!Trace.emit} feeds
    them from the event, never a direct bump, so they cannot disagree
    with the stream. The [serve.*] result and admission cells are fed
    only by [Serve.Stats]'s recording calls ([note_result],
    [note_admitted], [note_shed]). *)

type t =
  | Sched_placements  (** modulo-scheduler placement steps (budget spent) *)
  | Sched_evictions  (** tally of [sched.evict]: ops unscheduled to make room *)
  | Sched_ii_escalations  (** tally of [sched.escalate]: candidate IIs abandoned *)
  | Sched_budget_exhausted  (** tally of [sched.escalate] with cause ["budget"] *)
  | Greedy_decisions  (** tally of unpinned [greedy.place]: placed by benefit *)
  | Greedy_tie_breaks  (** tally of [greedy.place] where >= 2 banks tied *)
  | Greedy_pinned  (** tally of pinned [greedy.place] *)
  | Copies_inserted  (** tally of [copies.route], label ["SRC->DST"] bank pair *)
  | Spilled_registers  (** tally of [alloc.spill]: registers spilled *)
  | Alloc_rounds  (** colouring rounds run by the allocator *)
  | Ladder_rung_entered  (** label = rung name: resilience-ladder rungs tried *)
  | Ladder_rung_failed  (** label = rung name: rungs that failed *)
  | Analysis_iterations  (** worklist iterations across the dataflow solves *)
  | Analysis_widened  (** facts forced to a widened value to converge *)
  | Analysis_ddg_diff  (** discrepancies between analysis and DDG edge sets *)
  | Engine_cache_corrupt  (** cache entries rejected as corrupt (degraded to miss) *)
  | Serve_admitted  (** compile requests admitted into the service queue *)
  | Serve_shed  (** requests answered [overload] by admission control *)
  | Serve_completed  (** requests answered with verified code *)
  | Serve_failed  (** requests answered with a structured error *)
  | Serve_timeouts  (** requests answered with a deadline-exceeded reply *)
  | Serve_cache_hits  (** requests answered straight from the result cache *)
  | Serve_bad_frames  (** unparseable / oversized / unknown-op frames *)
  | Serve_disconnects  (** replies dropped because the client went away *)
  | Serve_worker_restarts  (** worker domains restarted by the supervisor *)
  | Serve_quarantined  (** poison requests quarantined after repeated crashes *)

val name : t -> string
(** Stable dotted identifier, e.g. ["sched.placements"] — the name used
    by every exporter. *)

val all : t list

type gauge =
  | Alloc_conflict_nodes  (** tally of [alloc.pressure], label ["bankB"]: nodes *)
  | Alloc_conflict_edges  (** tally of [alloc.pressure], label ["bankB"]: edges *)
  | Clustered_mii  (** the MII the clustered reschedule started from *)

val gauge_name : gauge -> string
val all_gauges : gauge list
